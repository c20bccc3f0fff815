// Command ftsim runs one workload application under one recovery protocol
// and commit medium, optionally injecting stop failures, and prints the
// run's event, checkpoint and recovery statistics.
//
// Usage:
//
//	ftsim -app nvi -protocol CPVS -medium rio [-scale 1] [-stop proc:step]...
//	      [-tracefile out.json] [-metrics] [-debug]
//	ftsim -app nvi -seeds 20 [-parallel N]
//
// -tracefile writes a Chrome trace-event / Perfetto-compatible JSON timeline
// of the run over virtual time (one track per process; spans for commits,
// rollbacks, replay windows and 2PC rounds; flow arrows for happens-before
// edges). -metrics prints the full counter/histogram snapshot.
//
// -seeds N runs the same configuration at seeds seed..seed+N-1 as a
// campaign fanned out over -parallel workers, printing one summary line
// per seed. The lines are printed in seed order and are byte-identical to
// a -parallel=1 run (see internal/campaign).
//
// -ledger appends one forensic record per run (study "ftsim") to the named
// campaign-ledger file — single runs and -seeds campaigns alike — for
// cmd/ftreport.
//
// -veto arms the run's Discount Checking instance with a mined commit-veto
// policy (an .ftv file from ftreport -veto, key "ftsim/<app>/<protocol>"):
// commits whose mined state is on a dangerous path are deferred, and the
// run's veto counters are printed with the DC statistics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"failtrans/internal/bench"
	"failtrans/internal/campaign"
	"failtrans/internal/dc"
	"failtrans/internal/event"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
	"failtrans/internal/statemachine"
	"failtrans/internal/trace"
)

// apps lists the workloads BuildWorld accepts, each with the number of
// processes its world has (at every -scale).
var apps = []struct {
	name  string
	procs int
}{{"nvi", 1}, {"magic", 1}, {"xpilot", 4}, {"treadmarks", 4}}

// validateChoices rejects bad -app/-protocol/-medium values before any work
// happens, each with a one-line error naming the accepted values. It returns
// the app's process count.
func validateChoices(app, pol, medium string) (procs int, err error) {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.name
		if app == a.name {
			procs = a.procs
		}
	}
	if procs == 0 {
		return 0, fmt.Errorf("unknown -app %q (accepted: %s)", app, strings.Join(names, ", "))
	}
	if medium != "rio" && medium != "disk" {
		return 0, fmt.Errorf("unknown -medium %q (accepted: rio, disk)", medium)
	}
	if pol != "NONE" {
		if _, err := protocol.ByName(pol); err != nil {
			names := make([]string, 0, len(protocol.Space())+1)
			names = append(names, "NONE")
			for _, p := range protocol.Space() {
				names = append(names, p.Name)
			}
			return 0, fmt.Errorf("unknown -protocol %q (accepted: %s)", pol, strings.Join(names, ", "))
		}
	}
	return procs, nil
}

// stop is one parsed -stop flag.
type stop struct{ proc, step int }

// parseStops checks every -stop value against the app's process count before
// anything is built: proc:step, both decimal with nothing after them, proc in
// [0, procs), step >= 0.
func parseStops(vals []string, app string, procs int) ([]stop, error) {
	stops := make([]stop, 0, len(vals))
	for _, v := range vals {
		ps, ss, ok := strings.Cut(v, ":")
		proc, perr := strconv.Atoi(ps)
		step, serr := strconv.Atoi(ss)
		if !ok || perr != nil || serr != nil || proc < 0 || proc >= procs || step < 0 {
			return nil, fmt.Errorf("bad -stop %q (want proc:step with proc in 0..%d for -app %s and step >= 0)", v, procs-1, app)
		}
		stops = append(stops, stop{proc, step})
	}
	return stops, nil
}

type stopList []string

func (s *stopList) String() string     { return strings.Join(*s, ",") }
func (s *stopList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	app := flag.String("app", "nvi", "nvi | magic | xpilot | treadmarks")
	polName := flag.String("protocol", "CPVS", "protocol name (see ftbench -experiment space), or NONE")
	mediumName := flag.String("medium", "rio", "rio | disk")
	scale := flag.Int("scale", 1, "workload scale")
	seed := flag.Int64("seed", 11, "simulation seed")
	verbose := flag.Bool("v", false, "print visible output")
	dump := flag.String("dump", "", "write the recorded event trace (JSON lines) to this file")
	tracefile := flag.String("tracefile", "", "write a Perfetto/Chrome trace-event JSON timeline (virtual time) to this file")
	metricsFlag := flag.Bool("metrics", false, "print the full metrics snapshot after the run")
	debug := flag.Bool("debug", false, "print scheduler/recovery debug diagnostics to stderr")
	seeds := flag.Int("seeds", 1, "run a campaign over this many consecutive seeds instead of one run")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "campaign worker count for -seeds (1 = serial; output is identical either way)")
	ledgerPath := flag.String("ledger", "", "append one forensic record per run to this campaign-ledger file (for ftreport)")
	vetoPath := flag.String("veto", "", "arm the DC with a mined commit-veto policy from this .ftv file (key ftsim/<app>/<protocol>)")
	var stopVals stopList
	flag.Var(&stopVals, "stop", "inject a stop failure as proc:step (repeatable)")
	flag.Parse()

	// Every flag is checked before a file is created or a world built; a
	// command line ftsim cannot run exits 2.
	procs, err := validateChoices(*app, *polName, *mediumName)
	if err != nil {
		usage(err)
	}
	stops, err := parseStops(stopVals, *app, procs)
	if err != nil {
		usage(err)
	}
	if *seeds > 1 && (*tracefile != "" || *dump != "" || *metricsFlag || *debug || len(stops) > 0 || *vetoPath != "") {
		usage(fmt.Errorf("-seeds campaigns support none of -tracefile, -dump, -metrics, -debug, -stop, -veto (run a single seed for those)"))
	}
	if *vetoPath != "" && *polName == "NONE" {
		usage(fmt.Errorf("-veto arms the DC's commit decisions; it needs a -protocol other than NONE"))
	}

	// The ledger file is created before any simulation so a bad path fails
	// fast; it is written from the single run or the campaign's ordered
	// accept callback, so its bytes are invariant across -parallel.
	var lw *ledger.Writer
	var ledgerClose func()
	if *ledgerPath != "" {
		f, err := os.Create(*ledgerPath)
		if err != nil {
			fail(err)
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		lw = ledger.NewWriter(bw)
		ledgerClose = func() {
			err := lw.Err()
			if err == nil {
				err = bw.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(fmt.Errorf("-ledger: %w", err))
			}
			fmt.Printf("ledger:         %s (%d records)\n", *ledgerPath, lw.Records())
		}
	}

	if *seeds > 1 {
		if err := runCampaign(*app, *polName, *mediumName, *scale, *seed, *seeds, *parallel, lw); err != nil {
			fail(err)
		}
		if ledgerClose != nil {
			ledgerClose()
		}
		return
	}

	w, err := bench.BuildWorld(*app, *scale, *seed)
	if err != nil {
		fail(err)
	}
	if *metricsFlag || *tracefile != "" {
		w.EnableObs(*tracefile != "")
	}
	if *debug {
		w.DebugLog = &obs.DebugLog{Enabled: true, W: os.Stderr}
	}
	medium := stablestore.Rio
	if *mediumName == "disk" {
		medium = stablestore.Disk
	}
	var d *dc.DC
	if *polName != "NONE" {
		pol, err := protocol.ByName(*polName)
		if err != nil {
			fail(err)
		}
		d = dc.New(w, pol, medium)
		if *vetoPath != "" {
			armVeto(d, *vetoPath, "ftsim/"+*app+"/"+*polName)
		}
		if err := d.Attach(); err != nil {
			fail(err)
		}
	}
	for _, s := range stops {
		w.ScheduleStop(s.proc, s.step)
	}
	if err := w.Run(); err != nil {
		fail(err)
	}

	fmt.Printf("app=%s protocol=%s medium=%s\n", *app, *polName, medium.Name)
	fmt.Printf("virtual time:   %v\n", w.Clock)
	fmt.Printf("events:         %d\n", w.EventCount)
	kinds := map[event.Kind]int{}
	nd := 0
	for _, e := range w.Trace.Events {
		kinds[e.Kind]++
		if e.EffectivelyND() {
			nd++
		}
	}
	fmt.Printf("  visible=%d send=%d receive=%d commit=%d effectively-nd=%d\n",
		kinds[event.Visible], kinds[event.Send], kinds[event.Receive], kinds[event.Commit], nd)
	for i, p := range w.Procs {
		fmt.Printf("proc %d (%s): status=%v steps=%d crashes=%d\n",
			i, p.Prog.Name(), p.Status(), p.Steps, p.Crashes)
	}
	if d != nil {
		fmt.Printf("checkpoints:    %v (total %d)\n", d.Stats.Checkpoints, d.Stats.TotalCheckpoints())
		fmt.Printf("commit bytes:   %d  commit time: %v\n", d.Stats.CommitBytes, d.Stats.CommitTime)
		fmt.Printf("log records:    %d (%d bytes)\n", d.Stats.LogRecords, d.Stats.LogBytes)
		fmt.Printf("recoveries:     %d  2pc rounds: %d\n", d.Stats.Recoveries, d.Stats.TwoPhaseRounds)
		if *vetoPath != "" {
			fmt.Printf("commit veto:    %d consulted, %d vetoed (%d at save-work points)\n",
				d.Stats.VetoConsults, d.Stats.CommitsVetoed, d.Stats.VetoedSaveWork)
		}
	}
	// The paper's §3 heuristic, applied to this run's event mix.
	sum := trace.Summarize(w.Trace)
	inputs := 0
	for _, e := range w.Trace.Events {
		if e.Label == "input" {
			inputs++
		}
	}
	mix := protocol.EventMix{
		Visible:     sum.ByKind[event.Visible],
		Sends:       sum.ByKind[event.Send],
		Receives:    sum.ByKind[event.Receive],
		Input:       inputs,
		OtherND:     sum.EffectivelyND - inputs - sum.ByKind[event.Receive],
		Distributed: len(w.Procs) > 1,
	}
	if mix.OtherND < 0 {
		mix.OtherND = 0
	}
	fmt.Printf("recommended:    %s\n", protocol.RecommendString(mix))
	vs := recovery.CheckSaveWork(w.Trace)
	if len(vs) == 0 {
		fmt.Println("save-work:      upheld over the recorded trace")
	} else {
		fmt.Printf("save-work:      violated on the raw trace (rollback-discarded events are counted) (%d), first: %v\n", len(vs), vs[0])
	}
	if *verbose {
		for _, line := range w.GlobalOutputs() {
			fmt.Println("  |", line)
		}
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fail(err)
		}
		if err := trace.Save(f, w.Trace); err != nil {
			f.Close() //failtrans:errok best-effort cleanup; the save error being reported is the primary failure
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace:          %s (%s)\n", *dump, trace.Summarize(w.Trace))
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			fail(err)
		}
		if err := w.Tracer.WriteJSON(f); err != nil {
			f.Close() //failtrans:errok best-effort cleanup; the export error being reported is the primary failure
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("tracefile:      %s (%d trace events)\n", *tracefile, w.Tracer.Len())
	}
	if *metricsFlag {
		fmt.Println("--- metrics ---")
		w.Metrics.WriteSnapshot(os.Stdout)
	}
	if lw != nil {
		kind := "none"
		if len(stops) > 0 {
			kind = "stop"
		}
		rec := ledger.Get()
		ftsimRecord(rec, *app, *polName, medium.Name, *seed, w, d, kind, len(vs) > 0)
		lw.Append(rec)
		ledger.Put(rec)
		ledgerClose()
	}
}

// armVeto loads the .ftv policy file and installs the policy for key on the
// DC's commit-veto hook. ftsim records carry no fault activation, so the
// run's mined position is simply CommitStateKey(n) after n commits — the
// same commit-count space ftsim-study machines are keyed in.
func armVeto(d *dc.DC, path, key string) {
	f, err := os.Open(path)
	if err != nil {
		fail(fmt.Errorf("-veto: %w", err))
	}
	ps, err := statemachine.ReadPolicies(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(fmt.Errorf("-veto: %w", err))
	}
	pol := statemachine.FindPolicy(ps, key)
	if pol == nil {
		keys := make([]string, 0, len(ps))
		for _, p := range ps {
			keys = append(keys, p.Key)
		}
		fail(fmt.Errorf("-veto: no policy for %q in %s (have: %s)", key, path, strings.Join(keys, ", ")))
	}
	d.CommitVeto = func(p *sim.Proc, label string) bool {
		return pol.CommitUnsafe(ledger.CommitStateKey(d.Stats.TotalCheckpoints()))
	}
}

// ftsimRecord renders one finished ftsim run into a forensic record.
func ftsimRecord(rec *ledger.Record, app, polName, mediumName string, seed int64,
	w *sim.World, d *dc.DC, kind string, saveWorkViolated bool) {
	rec.Study = "ftsim"
	rec.App = app
	rec.Protocol = polName
	rec.Medium = mediumName
	rec.Kind = kind
	rec.Seed = seed
	rec.Outcome = ledger.Completed
	if !w.AllDone() {
		rec.Outcome = ledger.Crashed
	}
	rec.SaveWork = saveWorkViolated
	if d != nil {
		rec.CommitN = d.Stats.TotalCheckpoints()
	}
	rec.Steps = w.Procs[0].Steps
	rec.WorldSteps = w.StepCount()
	rec.VClockUS = int64(w.Clock / time.Microsecond)
}

// runCampaign executes the configured workload at n consecutive seeds,
// fanned out over workers, printing one line per seed. Lines are emitted
// from the campaign's ordered accept callback, so the output is identical
// for any worker count.
func runCampaign(app, polName, mediumName string, scale int, baseSeed int64, n, workers int, lw *ledger.Writer) error {
	medium := stablestore.Rio
	if mediumName == "disk" {
		medium = stablestore.Disk
	}
	campObs := obs.NewCampaignMetrics(workers)
	type seedRun struct {
		line string
		rec  *ledger.Record
	}
	err := campaign.Run(campaign.Config{Workers: workers, Metrics: campObs}, n,
		func(i int) (seedRun, error) {
			seed := baseSeed + int64(i)
			w, err := bench.BuildWorld(app, scale, seed)
			if err != nil {
				return seedRun{}, err
			}
			w.RecordTrace = true
			var d *dc.DC
			if polName != "NONE" {
				pol, err := protocol.ByName(polName)
				if err != nil {
					return seedRun{}, err
				}
				d = dc.New(w, pol, medium)
				if err := d.Attach(); err != nil {
					return seedRun{}, err
				}
			}
			if err := w.Run(); err != nil {
				return seedRun{}, err
			}
			ckpts, recoveries := 0, 0
			if d != nil {
				ckpts = d.Stats.TotalCheckpoints()
				recoveries = d.Stats.Recoveries
			}
			violated := len(recovery.CheckSaveWork(w.Trace)) > 0
			saveWork := "upheld"
			if violated {
				saveWork = "violated"
			}
			r := seedRun{line: fmt.Sprintf("seed=%-6d vtime=%-14v events=%-8d ckpts=%-6d recoveries=%-3d save-work=%s",
				seed, w.Clock, w.EventCount, ckpts, recoveries, saveWork)}
			if lw != nil {
				r.rec = ledger.Get()
				ftsimRecord(r.rec, app, polName, medium.Name, seed, w, d, "none", violated)
			}
			return r, nil
		},
		func(i int, r seedRun) bool {
			fmt.Println(r.line)
			if r.rec != nil {
				r.rec.Run = i
				lw.Append(r.rec)
				ledger.Put(r.rec)
			}
			return true
		})
	if err != nil {
		return err
	}
	return campObs.WriteSummary(os.Stderr)
}

// fail reports a failure of the environment or of the run and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "ftsim:", err)
	os.Exit(1)
}

// usage reports a command line ftsim cannot run and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "ftsim:", err)
	os.Exit(2)
}
