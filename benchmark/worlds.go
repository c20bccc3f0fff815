package main

import (
	"fmt"
	"runtime"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/bench"
	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// cellResult is everything virtual a finished world reports; two runs of
// the same cell must agree on all of it, shimmed or not.
type cellResult struct {
	clock     time.Duration
	ckpts     int
	logs      int64
	steps     int
	procSteps int
	outputs   uint64 // FNV-64 of every process's visible output
}

func resultOf(w *sim.World, d *dc.DC) cellResult {
	res := cellResult{clock: w.Clock, steps: w.StepCount(), procSteps: w.Procs[0].Steps}
	if d != nil {
		res.ckpts = d.Stats.TotalCheckpoints()
		res.logs = d.Stats.LogRecords
	}
	h := newDigest()
	for _, out := range w.Outputs {
		h.i64(int64(len(out)))
		for _, line := range out {
			h.str(line)
		}
	}
	res.outputs = h.Sum64()
	return res
}

func (c cellResult) fold(d digest) {
	d.i64(int64(c.clock))
	d.i64(int64(c.ckpts))
	d.i64(c.logs)
	d.i64(int64(c.steps))
	d.i64(int64(c.outputs))
}

// layerCounts sums the counters instrumented worlds export.
type layerCounts struct {
	steps, schedUpdates            int64
	commits, logRecords, rollbacks int64
	replayed, twoPhase             int64
	commitTime                     time.Duration
	vistaBusy, vistaPages          int64
	pagesDirty, hashHits           int64
	commitBytes                    int64
}

func (lc *layerCounts) addWorld(w *sim.World, d *dc.DC, m *mirror) {
	lc.steps += int64(w.StepCount())
	if mt := w.Metrics; mt != nil {
		lc.schedUpdates += mt.SchedUpdates
		for i := range mt.Procs {
			lc.replayed += mt.Procs[i].ReplayedEvents
		}
	}
	if d != nil {
		lc.commits += int64(d.Stats.TotalCheckpoints())
		lc.logRecords += d.Stats.LogRecords
		lc.rollbacks += int64(d.Stats.Recoveries)
		lc.twoPhase += int64(d.Stats.TwoPhaseRounds)
		lc.commitTime += d.Stats.CommitTime
	}
	if m != nil {
		for i := range m.metrics {
			lc.pagesDirty += m.metrics[i].PagesDirtied
			lc.hashHits += m.metrics[i].HashHits
		}
		lc.vistaBusy += m.busy
		lc.vistaPages += m.pages
		lc.commitBytes += m.commitBytes
	}
}

// runWorld drives w to completion like World.Run, stamping the clock every
// quantumSteps scheduling decisions; the gaps are the run latencies of the
// world workloads. The trailing partial quantum yields no sample.
func runWorld(w *sim.World, lat []int64) ([]int64, error) {
	if err := w.Init(); err != nil {
		return lat, err
	}
	last := now()
	for n := 0; ; {
		more, err := w.Step()
		if err != nil {
			return lat, err
		}
		if !more {
			return lat, nil
		}
		if n++; n == quantumSteps {
			t := now()
			lat = append(lat, t-last)
			last, n = t, 0
		}
	}
}

// fig8Cell is one (app, protocol, medium) cell; pol nil is the baseline.
type fig8Cell struct {
	app    string
	pol    *protocol.Policy
	medium stablestore.Medium
}

func (c fig8Cell) String() string {
	if c.pol == nil {
		return c.app + "/baseline"
	}
	return c.app + "/" + c.pol.Name + "/" + c.medium.Name
}

// fig8Cells lists the sweep in canonical order: per app, the baseline then
// every measured protocol on rio and on disk, as bench.Fig8 does.
func fig8Cells() []fig8Cell {
	var cells []fig8Cell
	measured := protocol.Measured()
	for _, app := range bench.Fig8Apps {
		cells = append(cells, fig8Cell{app: app, medium: stablestore.Rio})
		for i := range measured {
			cells = append(cells, fig8Cell{app, &measured[i], stablestore.Rio}, fig8Cell{app, &measured[i], stablestore.Disk})
		}
	}
	return cells
}

// fig8Workload is the failure-free Figure 8 sweep.
type fig8Workload struct{ cells []fig8Cell }

// runCell mirrors bench.runOnce: build, attach the metrics registry and the
// protocol, run. With a tracer the world is instrumented first.
func runCell(c fig8Cell, scale int, t *tracer, lc *layerCounts, lat []int64) (cellResult, []int64, error) {
	if t != nil {
		t.enter(layerSim)
		defer t.exit()
	}
	w, err := bench.BuildWorld(c.app, scale, fig8Seed)
	if err != nil {
		return cellResult{}, lat, err
	}
	w.RecordTrace = false
	w.EnableObs(false)
	var d *dc.DC
	if c.pol != nil {
		d = dc.New(w, *c.pol, c.medium)
	}
	var m *mirror
	if t != nil {
		t.enter(layerTrace)
		m = instrument(w, d, t)
		t.exit()
	}
	if d != nil {
		if t != nil {
			t.enter(layerDC)
		}
		err := d.Attach()
		if t != nil {
			t.exit()
			m.reset()
		}
		if err != nil {
			return cellResult{}, lat, err
		}
	}
	if lat, err = runWorld(w, lat); err != nil {
		return cellResult{}, lat, err
	}
	if lc != nil {
		lc.addWorld(w, d, m)
	}
	return resultOf(w, d), lat, nil
}

func (fw *fig8Workload) runRep(env *env, scaleDiv int, t *tracer, spans *spanLog, parent int) (rep, error) {
	var r rep
	results := make([]cellResult, len(fw.cells))
	appWall := map[string]int64{}
	lc := &layerCounts{}
	r.lat = make([]int64, 0, 1024)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := now()
	for _, ci := range env.order(len(fw.cells)) {
		c := fw.cells[ci]
		scale := fig8Scales[c.app] / scaleDiv
		id := -1
		if spans != nil {
			id = spans.begin(c.String(), parent)
		}
		cellStart := now()
		res, lat, err := runCell(c, scale, t, lc, r.lat)
		appWall[c.app] += now() - cellStart
		if spans != nil {
			spans.end(id)
		}
		r.lat = lat
		r.attempted++
		if err != nil {
			return r, fmt.Errorf("%s: %w", c, err)
		}
		results[ci] = res
	}
	r.wall = now() - start
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	d := newDigest()
	for _, res := range results {
		res.fold(d)
		r.steps += int64(res.steps)
	}
	r.digest = d.Sum64()
	r.ops = r.steps
	if t != nil {
		for _, app := range bench.Fig8Apps {
			env.layer("fig8."+app+"_wall_s", seconds(appWall[app]))
		}
		env.layerSplit(t, lc)
	}
	return r, nil
}

func (fw *fig8Workload) warm(env *env) error {
	_, err := fw.runRep(env, 10, nil, nil, -1)
	return err
}

func (fw *fig8Workload) rep(env *env, t *tracer, spans *spanLog, parent int) (rep, error) {
	return fw.runRep(env, 1, t, spans, parent)
}

func (fw *fig8Workload) layers(env *env, t *tracer, base float64) error { return nil }

// fleetWorkload is the scheduler-bound echo fleet with no recovery layer.
type fleetWorkload struct{}

func (fw *fleetWorkload) runRep(env *env, procs int, t *tracer, spans *spanLog, parent int) (rep, error) {
	var r rep
	// World construction and Init are not scheduling work: they stay
	// outside the timed region and are reported with the set-up.
	prepStart := now()
	cfg := fleet.Sized(procs)
	cfg.Rounds = fleetRounds
	w := sim.NewWorld(env.seed, fleet.Fleet(cfg)...)
	w.RecordTrace = false
	w.MaxSteps = 100_000_000
	w.EnableObs(false)
	if t != nil {
		instrument(w, nil, t)
	}
	if err := w.Init(); err != nil {
		return r, err
	}
	r.lat = make([]int64, 0, 2048)
	r.prep = now() - prepStart

	id := -1
	if spans != nil {
		id = spans.begin("fleet", parent)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := now()
	if t != nil {
		t.enter(layerSim)
	}
	lat, err := runWorld(w, r.lat)
	if t != nil {
		t.exit()
	}
	r.wall = now() - start
	runtime.ReadMemStats(&m1)
	if spans != nil {
		spans.end(id)
	}
	if err != nil {
		return r, err
	}
	r.lat = lat
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.attempted = 1
	if !w.AllDone() {
		r.failed = 1
	}
	res := resultOf(w, nil)
	d := newDigest()
	res.fold(d)
	r.digest = d.Sum64()
	r.steps = int64(res.steps)
	r.ops = r.steps
	if t != nil {
		lc := &layerCounts{}
		lc.addWorld(w, nil, nil)
		env.layerSplit(t, lc)
	}
	return r, nil
}

func (fw *fleetWorkload) warm(env *env) error {
	_, err := fw.runRep(env, warmFleetProcs, nil, nil, -1)
	return err
}

func (fw *fleetWorkload) rep(env *env, t *tracer, spans *spanLog, parent int) (rep, error) {
	return fw.runRep(env, fleetProcs, t, spans, parent)
}

func (fw *fleetWorkload) layers(env *env, t *tracer, base float64) error { return nil }
