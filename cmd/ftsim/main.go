// Command ftsim runs one workload application under one recovery protocol
// and commit medium, optionally injecting stop failures, and prints the
// run's event, checkpoint and recovery statistics.
//
// Usage:
//
//	ftsim -app nvi -protocol CPVS -medium rio [-scale 1] [-stop proc:step]...
//	      [-tracefile out.json] [-metrics] [-v]
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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
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
	"failtrans/internal/trace"
)

// validateChoices rejects bad -app/-protocol/-medium values before any work
// happens, each with a one-line error naming the accepted values.
func validateChoices(app, pol, medium string) error {
	if !slices.Contains(bench.Fig8Apps, app) {
		return fmt.Errorf("unknown -app %q (accepted: %s)", app, strings.Join(bench.Fig8Apps, ", "))
	}
	if medium != "rio" && medium != "disk" {
		return fmt.Errorf("unknown -medium %q (accepted: rio, disk)", medium)
	}
	if pol != "NONE" {
		if _, err := protocol.ByName(pol); err != nil {
			names := make([]string, 0, len(protocol.Space())+1)
			names = append(names, "NONE")
			for _, p := range protocol.Space() {
				names = append(names, p.Name)
			}
			return fmt.Errorf("unknown -protocol %q (accepted: %s)", pol, strings.Join(names, ", "))
		}
	}
	return nil
}

// stop is one parsed -stop flag.
type stop struct{ proc, step int }

// parseStops checks every -stop value before anything is written: proc:step,
// both decimal with nothing after them, step >= 0, and proc in [0, procs)
// for the processes of the world bench.BuildWorld builds for cfg.
func parseStops(vals []string, cfg config) ([]stop, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	w, err := bench.BuildWorld(cfg.app, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	procs := len(w.Procs)
	stops := make([]stop, 0, len(vals))
	for _, v := range vals {
		ps, ss, ok := strings.Cut(v, ":")
		proc, perr := strconv.Atoi(ps)
		step, serr := strconv.Atoi(ss)
		if !ok || perr != nil || serr != nil || proc < 0 || proc >= procs || step < 0 {
			return nil, fmt.Errorf("bad -stop %q (want proc:step with proc in 0..%d for -app %s and step >= 0)", v, procs-1, cfg.app)
		}
		stops = append(stops, stop{proc, step})
	}
	return stops, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	app := flag.String("app", "nvi", strings.Join(bench.Fig8Apps, " | "))
	polName := flag.String("protocol", "CPVS", "protocol name (see ftbench -experiment space), or NONE")
	mediumName := flag.String("medium", "rio", "rio | disk")
	scale := flag.Int("scale", 1, "workload scale")
	seed := flag.Int64("seed", 11, "simulation seed")
	verbose := flag.Bool("v", false, "print visible output")
	dump := flag.String("dump", "", "write the recorded event trace (JSON lines) to this file")
	tracefile := flag.String("tracefile", "", "write a Perfetto/Chrome trace-event JSON timeline (virtual time) to this file")
	metricsFlag := flag.Bool("metrics", false, "print the full metrics snapshot after the run")
	seeds := flag.Int("seeds", 1, "run a campaign over this many consecutive seeds instead of one run")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "campaign worker count for -seeds (1 = serial; output is identical either way)")
	ledgerPath := flag.String("ledger", "", "append one forensic record per run to this campaign-ledger file (for ftreport)")
	var stopVals multiFlag
	flag.Var(&stopVals, "stop", "inject a stop failure as proc:step (repeatable)")
	flag.Parse()

	// Every flag is checked before a file is created or the run's world
	// built; a command line ftsim cannot run exits 2.
	if err := validateChoices(*app, *polName, *mediumName); err != nil {
		usage(err)
	}
	cfg := config{app: *app, protocol: *polName, medium: *mediumName, kind: "none", scale: *scale, seed: *seed}
	stops, err := parseStops(stopVals, cfg)
	if err != nil {
		usage(err)
	}
	if *seeds > 1 && (*tracefile != "" || *dump != "" || *metricsFlag || len(stops) > 0 || *verbose) {
		usage(fmt.Errorf("-seeds campaigns support none of -tracefile, -dump, -metrics, -stop, -v (run a single seed for those)"))
	}
	if *seeds <= 1 {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "parallel" {
				usage(fmt.Errorf("-parallel sets the worker count of a -seeds campaign; a single run has no workers"))
			}
		})
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
		if err := runCampaign(cfg, *seeds, *parallel, lw); err != nil {
			fail(err)
		}
		if ledgerClose != nil {
			ledgerClose()
		}
		return
	}

	var rec *ledger.Record
	if lw != nil {
		rec = ledger.Get()
	}
	if len(stops) > 0 {
		cfg.kind = "stop"
	}
	w, d, vs, err := runOne(cfg, rec, func(w *sim.World, d *dc.DC) {
		if *metricsFlag || *tracefile != "" {
			w.EnableObs(*tracefile != "")
		}
		for _, s := range stops {
			w.ScheduleStop(s.proc, s.step)
		}
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("app=%s protocol=%s medium=%s\n", *app, *polName, *mediumName)
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
		fmt.Printf("checkpoints:    %v (total %d)\n", d.Checkpoints(), d.Stats.TotalCheckpoints())
		fmt.Printf("commit bytes:   %d  commit time: %v\n", d.Stats.CommitBytes, d.Stats.CommitTime)
		fmt.Printf("log records:    %d (%d bytes)\n", d.Stats.LogRecords, d.Stats.LogBytes)
		fmt.Printf("recoveries:     %d  2pc rounds: %d\n", d.Stats.Recoveries, d.Stats.TwoPhaseRounds)
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
		lw.Append(rec)
		ledger.Put(rec)
		ledgerClose()
	}
}

// config names one ftsim run; kind is its ledger record's fault kind.
type config struct {
	app, protocol, medium, kind string
	scale                       int
	seed                        int64
}

// runOne is the body of every ftsim run, single or campaign: it builds the
// configured world, attaches Discount Checking under the configured protocol
// and medium (none under NONE), calls arm (if non-nil) with the world and
// its DC before the initial checkpoints, runs the world to the end, checks
// Save-work over its trace and fills rec, if non-nil, with the run's
// forensic record.
func runOne(cfg config, rec *ledger.Record, arm func(*sim.World, *dc.DC)) (*sim.World, *dc.DC, []recovery.SaveWorkViolation, error) {
	w, err := bench.BuildWorld(cfg.app, cfg.scale, cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	var d *dc.DC
	if cfg.protocol != "NONE" {
		pol, err := protocol.ByName(cfg.protocol)
		if err != nil {
			return nil, nil, nil, err
		}
		medium := stablestore.Rio
		if cfg.medium == "disk" {
			medium = stablestore.Disk
		}
		d = dc.New(w, pol, medium)
	}
	if arm != nil {
		arm(w, d)
	}
	if d != nil {
		if err := d.Attach(); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := w.Run(); err != nil {
		return nil, nil, nil, err
	}
	vs := recovery.CheckSaveWork(w.Trace)
	if rec != nil {
		rec.Study = "ftsim"
		rec.App = cfg.app
		rec.Protocol = cfg.protocol
		rec.Medium = cfg.medium
		rec.Kind = cfg.kind
		rec.Seed = cfg.seed
		rec.Outcome = ledger.Completed
		if !w.AllDone() {
			rec.Outcome = ledger.Crashed
		}
		rec.SaveWork = len(vs) > 0
		if d != nil {
			rec.CommitN = d.Stats.TotalCheckpoints()
		}
		rec.Steps = w.Procs[0].Steps
		rec.WorldSteps = w.StepCount()
		rec.VClockUS = int64(w.Clock / time.Microsecond)
	}
	return w, d, vs, nil
}

// runCampaign executes the configured workload at n consecutive seeds from
// cfg.seed, fanned out over workers, printing one line per seed. Lines are
// emitted from the campaign's ordered accept callback, so the output is
// identical for any worker count.
func runCampaign(cfg config, n, workers int, lw *ledger.Writer) error {
	campObs := obs.NewCampaignMetrics(workers)
	type seedRun struct {
		line string
		rec  *ledger.Record
	}
	err := campaign.Run(campaign.Config{Workers: workers, Metrics: campObs}, n,
		func(i int) (seedRun, error) {
			c := cfg
			c.seed += int64(i)
			var r seedRun
			if lw != nil {
				r.rec = ledger.Get()
			}
			w, d, vs, err := runOne(c, r.rec, nil)
			if err != nil {
				return seedRun{}, err
			}
			ckpts, recoveries := 0, 0
			if d != nil {
				ckpts = d.Stats.TotalCheckpoints()
				recoveries = d.Stats.Recoveries
			}
			saveWork := "upheld"
			if len(vs) > 0 {
				saveWork = "violated"
			}
			r.line = fmt.Sprintf("seed=%-6d vtime=%-14v events=%-8d ckpts=%-6d recoveries=%-3d save-work=%s",
				c.seed, w.Clock, w.EventCount, ckpts, recoveries, saveWork)
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
