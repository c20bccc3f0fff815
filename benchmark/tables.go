package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// campaigns lists a tables repetition's four independent jobs in canonical
// order; --seed permutes the order they run in, never their content.
var campaigns = []struct{ study, app string }{
	{"table1", "nvi"}, {"table1", "postgres"}, {"table2", "nvi"}, {"table2", "postgres"},
}

// wallClock feeds the studies' fork-latency histogram, as ftbench does.
func wallClock() int64 { return time.Now().UnixNano() }

// tablesWorkload regenerates Table 1 and Table 2 under one protocol.
type tablesWorkload struct {
	pol protocol.Policy
	par bool // the trace tier also measures one repetition at Parallel=nproc

	// The traced repetition's first ledger: the append drive replays one of
	// its records.
	ledger []byte
}

// kindCount is one fault type's aggregate as the study itself reports it.
type kindCount struct {
	study, app, kind        string
	runs, crashes, loseWork int
}

// configure applies bench.Table1/Table2's study configuration: everything
// ftbench sets, with the campaign serial unless workers says otherwise.
func (tw *tablesWorkload) configure(s *faults.AppStudy, target, workers int, m *obs.CampaignMetrics, lw *ledger.Writer) {
	s.Policy = tw.pol
	s.Seed = studySeed
	s.CrashTarget = target
	s.MaxRunsPerType = target * 12
	s.Parallel = workers
	s.Snapshots = true
	s.COW = true
	s.WallClock = wallClock
	s.CampaignObs = m
	s.Ledger = lw
}

// runCampaign runs one (study, app) campaign into its own stamped ledger.
func (tw *tablesWorkload) runCampaign(study, app string, target, workers int, m *obs.CampaignMetrics, sw *stampWriter) ([]kindCount, error) {
	lw := ledger.NewWriter(sw)
	var counts []kindCount
	if study == "table1" {
		s := faults.NewAppStudy(app)
		tw.configure(s, target, workers, m, lw)
		rs, err := s.Run()
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			counts = append(counts, kindCount{study, app, r.Kind.String(), r.Runs, r.Crashes, r.Violations})
		}
	} else {
		s := faults.NewOSStudy(app)
		tw.configure(s.AppStudy, target, workers, m, lw)
		rs, err := s.Run()
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			counts = append(counts, kindCount{study, app, r.Kind.String(), r.Runs, r.Crashes, r.FailedRecoveries})
		}
	}
	if err := lw.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return counts, nil
}

// tablesRep is what one tables repetition leaves behind.
type tablesRep struct {
	writers []*stampWriter // canonical campaign order
	counts  []kindCount
	camp    *obs.CampaignMetrics
	starts  []int64 // per campaign, canonical order
	ends    []int64
}

func (tw *tablesWorkload) runRep(env *env, target, workers int, spans *spanLog, parent int) (rep, *tablesRep, error) {
	tr := &tablesRep{
		writers: make([]*stampWriter, len(campaigns)),
		camp:    obs.NewCampaignMetrics(workers),
		starts:  make([]int64, len(campaigns)),
		ends:    make([]int64, len(campaigns)),
	}
	for i := range tr.writers {
		tr.writers[i] = newStampWriter()
	}
	perCampaign := make([][]kindCount, len(campaigns))
	var r rep
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := now()
	for _, ci := range env.order(len(campaigns)) {
		c := campaigns[ci]
		tr.starts[ci] = now()
		counts, err := tw.runCampaign(c.study, c.app, target, workers, tr.camp, tr.writers[ci])
		tr.ends[ci] = now()
		if err != nil {
			return r, nil, fmt.Errorf("%s/%s: %w", c.study, c.app, err)
		}
		perCampaign[ci] = counts
	}
	r.wall = now() - start
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	d := newDigest()
	for ci, sw := range tr.writers {
		tr.counts = append(tr.counts, perCampaign[ci]...)
		d.Write(sw.buf)
		r.lat = append(r.lat, sw.gaps()...)
		if spans != nil {
			c := campaigns[ci]
			id := len(spans.spans)
			spans.add(c.study+"/"+c.app, tr.starts[ci], tr.ends[ci], parent)
			for i := 1; i < len(sw.stamps); i++ {
				spans.add("run", sw.stamps[i-1], sw.stamps[i], id)
			}
		}
	}
	r.digest = d.Sum64()
	r.ops = int64(len(r.lat))
	r.attempted = r.ops
	// A fault type that stops short of its crash target with runs to spare
	// means the campaign loop itself misbehaved.
	for _, k := range tr.counts {
		if k.crashes < target && k.runs < target*12 {
			r.failed++
		}
	}
	return r, tr, nil
}

func (tw *tablesWorkload) warm(env *env) error {
	_, _, err := tw.runRep(env, warmTarget, 1, nil, -1)
	return err
}

func (tw *tablesWorkload) rep(env *env, t *tracer, spans *spanLog, parent int) (rep, error) {
	// The studies build their worlds themselves, so a traced repetition is
	// the production path plus coarse spans; the shims run in layers().
	r, tr, err := tw.runRep(env, crashTarget, 1, spans, parent)
	if err != nil {
		return r, err
	}
	recs, size, err := tw.readLedgers(tr)
	if err != nil {
		return r, err
	}
	for i := range recs {
		r.steps += int64(recs[i].WorldSteps)
	}
	// Mining a ledger takes half a second, so the run's first repetition is
	// checked in full and the others by their digest matching it.
	if env.digest == 0 {
		tw.checkLedger(env, tr, recs)
	}
	if t != nil {
		tw.ledger = tr.writers[0].buf
		start := now()
		if _, _, err := tw.readLedgers(tr); err != nil {
			return r, err
		}
		rp := tw.checkLedger(env, tr, recs)
		env.layer("ledger.mine_s", seconds(now()-start))
		env.layer("ledger.records", float64(len(recs)))
		env.layer("ledger.kb", float64(size)/1024)
		env.layer("ledger.crosscheck_mismatches", float64(mismatches(rp)))
		tw.campaignLayers(env, tr)
	}
	return r, nil
}

func (tw *tablesWorkload) readLedgers(tr *tablesRep) (recs []ledger.Record, size int, err error) {
	for ci, sw := range tr.writers {
		rs, err := ledger.ReadAll(bytes.NewReader(sw.buf))
		if err != nil {
			return nil, 0, fmt.Errorf("%s/%s ledger: %w", campaigns[ci].study, campaigns[ci].app, err)
		}
		recs = append(recs, rs...)
		size += len(sw.buf)
	}
	return recs, size, nil
}

func mismatches(rp *ledger.Report) (n int64) {
	for _, key := range rp.Miner.Keys() {
		n += rp.Miner.Get(key).Mismatched
	}
	return n
}

// checkLedger mines the repetition's records: the mined machines must agree
// with the emitter's violation ranges, and the aggregates must reproduce
// the studies' own per-kind counts.
func (tw *tablesWorkload) checkLedger(env *env, tr *tablesRep, recs []ledger.Record) *ledger.Report {
	rp := ledger.Analyze(recs)
	if n := mismatches(rp); n != 0 {
		env.fail("ledger cross-check: %d mismatches", n)
	}
	groups := map[string]*ledger.Group{}
	for _, g := range rp.Agg.Groups() {
		groups[g.Key.Study+"/"+g.Key.App+"/"+g.Key.Kind] = g
	}
	for _, k := range tr.counts {
		g := groups[k.study+"/"+k.app+"/"+k.kind]
		if g == nil || int(g.Runs) != k.runs || int(g.Crashes) != k.crashes || int(g.LoseWork) != k.loseWork {
			env.fail("ledger disagrees with %s/%s/%s: study says %d runs %d crashes %d lose-work", k.study, k.app, k.kind, k.runs, k.crashes, k.loseWork)
		}
	}
	return rp
}

// campaignLayers reports what the campaign itself exports: the snapshot and
// fork counters and the per-campaign walls.
func (tw *tablesWorkload) campaignLayers(env *env, tr *tablesRep) {
	var runs, crashes int
	for _, k := range tr.counts {
		runs += k.runs
		crashes += k.crashes
	}
	if runs > 0 {
		env.layer("faults.crash_yield", float64(crashes)/float64(runs))
	}

	var first int64
	for _, sw := range tr.writers {
		if g := sw.gaps(); len(g) > 0 {
			first += g[0]
		}
	}
	env.layer("faults.first_record_s", seconds(first))
	env.layer("faults.table1_wall_s", seconds(tr.ends[0]-tr.starts[0]+tr.ends[1]-tr.starts[1]))
	env.layer("faults.table2_wall_s", seconds(tr.ends[2]-tr.starts[2]+tr.ends[3]-tr.starts[3]))

	s := &tr.camp.Snapshot
	env.layer("faults.snapshots", float64(s.Snapshots))
	env.layer("faults.steps_saved", float64(s.StepsSaved))
	if steps, n := s.ReplaySnapshot(); n > 0 {
		env.layer("faults.steps_replayed_per_run", float64(steps)/float64(n))
	}
	env.layer("faults.pages_privatized", float64(s.PagesPrivatized))
	env.layer("faults.cow_kb", float64(s.BytesCOW)/1024)
	env.layer("faults.store_hits", float64(s.StoreHits))
	env.layer("sim.forks", float64(s.Forks))
	env.layer("sim.fork_busy_s", seconds(s.ForkLatency.Sum))
	env.layer("sim.fork_mean_ns", float64(s.ForkLatency.Mean()))
}

// sessionWorld builds one app's study session exactly as the studies'
// buildWorld does, under the workload's protocol with recovery enabled.
func (tw *tablesWorkload) sessionWorld(app string) (*sim.World, *dc.DC) {
	var w *sim.World
	switch app {
	case "nvi":
		e := nvi.New("study.txt", faults.NviInitial())
		e.ThinkTime = 0
		e.RecoveryFile = true
		w = sim.NewWorld(studySeed, e)
		w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(studySeed, 400))
	default:
		w = sim.NewWorld(studySeed, postgres.New("study.dat"))
		w.Procs[0].Ctx().Inputs = postgres.Script(faults.PostgresSession(studySeed, 400))
	}
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.RecordTrace = false
	w.EnableObs(false)
	return w, dc.New(w, tw.pol, stablestore.Rio)
}

// runSession runs one session to completion. stopAt > 0 schedules a stop
// failure there, so the recovery layer rolls back and re-executes.
func (tw *tablesWorkload) runSession(app string, stopAt int, t *tracer, lc *layerCounts) (cellResult, error) {
	var res cellResult
	if t != nil {
		t.enter(layerSim)
		defer t.exit()
	}
	w, d := tw.sessionWorld(app)
	if stopAt > 0 {
		w.ScheduleStop(0, stopAt)
	}
	var m *mirror
	if t != nil {
		t.enter(layerTrace)
		m = instrument(w, d, t)
		t.exit()
		t.enter(layerDC)
	}
	err := d.Attach()
	if t != nil {
		t.exit()
		m.reset()
	}
	if err != nil {
		return res, err
	}
	if err := w.Run(); err != nil {
		return res, err
	}
	if !w.AllDone() {
		return res, fmt.Errorf("%s session did not finish", app)
	}
	res = resultOf(w, d)
	if lc != nil {
		lc.addWorld(w, d, m)
	}
	return res, nil
}

// layers runs the instruments the studies cannot host: shimmed sessions for
// the layer self times, layer drives, and the all-cores repetition.
func (tw *tablesWorkload) layers(env *env, t *tracer, base float64) error {
	lc := &layerCounts{}
	midSession := 0
	for _, app := range []string{"nvi", "postgres"} {
		clean, err := tw.runSession(app, 0, nil, nil)
		if err != nil {
			return err
		}
		if app == "nvi" {
			midSession = clean.steps / 2
		}
		stopAt := clean.procSteps / 2
		crashed, err := tw.runSession(app, stopAt, nil, nil)
		if err != nil {
			return err
		}
		for i := 0; i < sessionPairs; i++ {
			for _, c := range []struct {
				stopAt int
				want   cellResult
			}{{0, clean}, {stopAt, crashed}} {
				got, err := tw.runSession(app, c.stopAt, t, lc)
				if err != nil {
					return err
				}
				if got != c.want {
					env.fail("%s session (stop at %d) differs under the shims: %+v vs %+v", app, c.stopAt, got, c.want)
				}
			}
		}
	}
	env.layerSplit(t, lc)

	if err := tw.drives(env, midSession); err != nil {
		return err
	}
	if tw.par {
		workers := runtime.NumCPU()
		r, tr, err := tw.runRep(env, crashTarget, workers, nil, -1)
		if err != nil {
			return err
		}
		if r.digest != env.digest {
			env.fail("ledger at Parallel=%d differs: %016x vs %016x", workers, r.digest, env.digest)
		}
		env.layer("campaign.par_wall_s", seconds(r.wall))
		env.layer("campaign.par_speedup_x", base/seconds(r.wall))
		env.layer("campaign.dispatched", float64(tr.camp.Dispatched))
		env.layer("campaign.discarded", float64(tr.camp.Discarded))
	}
	return nil
}

// drives times single layer operations on an nvi world midSession steps
// into its session.
func (tw *tablesWorkload) drives(env *env, midSession int) error {
	w, d := tw.sessionWorld("nvi")
	if err := d.Attach(); err != nil {
		return err
	}
	for i := 0; i < midSession; i++ {
		if more, err := w.Step(); err != nil || !more {
			return fmt.Errorf("drive world ended early (err %v)", err)
		}
	}
	p := w.Procs[0]

	start := now()
	for i := 0; i < driveCalls; i++ {
		if err := d.Checkpoint(p); err != nil {
			return err
		}
	}
	env.layer("dc.commit_drive_ns", float64(now()-start)/driveCalls)

	start = now()
	for i := 0; i < driveCalls; i++ {
		if err := d.Rollback(p); err != nil {
			return err
		}
	}
	env.layer("dc.rollback_drive_ns", float64(now()-start)/driveCalls)

	tmpl, err := w.Fork()
	if err != nil {
		return err
	}
	tmpl.Freeze()
	start = now()
	for i := 0; i < driveCalls; i++ {
		if _, err := tmpl.Fork(); err != nil {
			return err
		}
	}
	env.layer("sim.fork_drive_ns", float64(now()-start)/driveCalls)

	// Append a real record: the first crash of the traced repetition.
	recs, err := ledger.ReadAll(bytes.NewReader(tw.ledger))
	if err != nil {
		return err
	}
	rec := &recs[0]
	for i := range recs {
		if recs[i].Outcome == ledger.Crashed {
			rec = &recs[i]
			break
		}
	}
	lw := ledger.NewWriter(io.Discard)
	start = now()
	for i := 0; i < driveCalls; i++ {
		lw.Append(rec)
	}
	env.layer("ledger.append_drive_ns", float64(now()-start)/driveCalls)
	return lw.Err()
}
