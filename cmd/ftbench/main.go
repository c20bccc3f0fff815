// Command ftbench regenerates the paper's evaluation: Figure 8 (protocol
// performance for nvi, magic, xpilot and TreadMarks under Discount Checking
// on reliable memory and on disk), Table 1 (application faults vs the
// Lose-work invariant), Table 2 (OS faults vs recovery), and the Figure 3
// protocol space. Its performance is measured from outside, by the
// benchmark/ module (BENCHMARK.json), and its hot paths by `go test -bench`.
//
// Every campaign (fault-injection runs, Figure 8 cells) fans out over
// -parallel workers; results are byte-identical to a serial run for the
// same seed (see internal/campaign), so parallelism is purely a wall-clock
// knob. The fault studies serve injection runs from a prefix-snapshot
// cache: one template run memoizes the clean session and every injection
// run forks it copy-on-write mid-stream instead of re-executing the prefix.
// That path, and the indexed World scheduler under every experiment, are
// the only ones this command reaches; from-scratch replay and the O(procs)
// scan scheduler survive as the references internal/bench's matrix test
// holds them byte-identical to.
//
// With -ledger, every experiment run additionally appends one forensic
// record to the named campaign-ledger file (see internal/obs/ledger); the
// file's bytes are invariant across -parallel, and cmd/ftreport turns it
// into the full campaign report.
//
// With -veto, the table1/table2 studies additionally arm each app's
// Discount Checking instance with the commit-veto policy of its machine
// mined from the named campaign ledgers (repeatable, concatenated in flag
// order as with ftreport -ledger; key "<study>/<app>/<protocol>");
// -experiment veto instead runs the self-contained two-phase campaign
// (phase 1 mines the policy, phase 2 re-runs the same seeds under it) and
// prints the clawed-back violation delta.
//
// -experiment fleet runs the scheduler scalability sweep: the fleet echo
// workload at -fleet-sizes processes (default 100,1000,10000) under the
// unrecoverable baseline and every measured protocol, printing
// ns-per-scheduling-decision and protocol-overhead curves (see
// internal/bench/fleet.go).
//
// Bad input is rejected before any simulation starts (exit 2), a flag the
// chosen -experiment never reads included, and every output file is
// created up front, so a typo cannot cost a campaign.
//
// Usage:
//
//	ftbench -experiment all|fig8|table1|table2|space|veto|fleet [-app nvi] [-scale 1] [-crashes 50]
//	ftbench ... [-fleet-sizes 100,1000,10000]
//	ftbench ... [-parallel N] [-json out.json] [-ledger campaign.ftl] [-veto mined.ftl ...]
//	ftbench ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"failtrans/internal/bench"
	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
)

// experiments lists the accepted -experiment values.
var experiments = []string{"all", "fig8", "table1", "table2", "space", "veto", "fleet"}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// options is the parsed command line.
type options struct {
	experiment, app          string
	scale, crashes, parallel int
	jsonPath, ledgerPath     string
	vetoPaths                multiFlag
	fleetSizes               string
	cpuprofile, memprofile   string
}

// readers lists the flags some experiments never read: what each one does
// and the -experiment values that read it. The veto experiment mines its
// own phase-1 policy and must start veto-free, so it never reads -veto.
var readers = []struct {
	flag, does  string
	experiments []string
}{
	{"veto", "-veto arms table1/table2 studies", []string{"all", "table1", "table2"}},
	{"scale", "-scale sizes fig8's workloads", []string{"all", "fig8"}},
	{"app", "-app restricts fig8 or veto to one app", []string{"fig8", "veto"}},
	{"fleet-sizes", "-fleet-sizes sizes -experiment fleet's fleets", []string{"fleet"}},
	{"crashes", "-crashes sets the fault studies' crash target", []string{"all", "table1", "table2", "veto"}},
}

// check rejects a command line that could only fail — or silently do
// nothing — once simulation is under way, and returns the parsed fleet
// sizes. set holds the names of the flags the command line sets.
func (o *options) check(set map[string]bool) ([]int, error) {
	if !slices.Contains(experiments, o.experiment) {
		return nil, fmt.Errorf("unknown -experiment %q (accepted: %s)", o.experiment, strings.Join(experiments, ", "))
	}
	if o.crashes < 1 {
		return nil, fmt.Errorf("-crashes must be at least 1, got %d", o.crashes)
	}
	for _, r := range readers {
		if set[r.flag] && !slices.Contains(r.experiments, o.experiment) {
			return nil, fmt.Errorf("%s; -experiment %s never reads it", r.does, o.experiment)
		}
	}
	sizes := []int{100, 1_000, 10_000}
	if o.fleetSizes != "" {
		sizes = sizes[:0]
		for _, tok := range strings.Split(o.fleetSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 2 {
				return nil, fmt.Errorf("-fleet-sizes: bad size %q (want integers >= 2)", tok)
			}
			sizes = append(sizes, n)
		}
	}
	return sizes, nil
}

// die reports a failure of the environment or of a run and exits 1.
func die(what string, err error) {
	fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", what, err)
	os.Exit(1)
}

func main() {
	var o options
	flag.StringVar(&o.experiment, "experiment", "all", strings.Join(experiments[1:], " | ")+" | all")
	flag.StringVar(&o.app, "app", "", "restrict fig8 to one app (nvi, magic, xpilot, treadmarks) or veto to one app (nvi, postgres)")
	flag.IntVar(&o.scale, "scale", 1, "workload scale factor for fig8 (1 = quick, 10 ≈ paper-length sessions)")
	flag.IntVar(&o.crashes, "crashes", 50, "crashes to collect per fault type in table1/table2 (paper: 50)")
	flag.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "campaign worker count (1 = serial; results are identical either way)")
	flag.StringVar(&o.jsonPath, "json", "", "also write the results as JSON to this path")
	flag.StringVar(&o.ledgerPath, "ledger", "", "append one forensic record per run to this campaign-ledger file (for ftreport)")
	flag.Var(&o.vetoPaths, "veto", "arm table1/table2 studies with the commit-veto policies mined from this campaign ledger (repeatable; concatenated in flag order)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&o.fleetSizes, "fleet-sizes", "", "comma-separated fleet sizes for -experiment fleet (default 100,1000,10000)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fleetSizes, err := o.check(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(2)
	}

	// Every input is read and every output created before any simulation,
	// so a bad path fails now rather than after an hours-long campaign.
	var veto *ledger.Miner
	if len(o.vetoPaths) > 0 {
		recs, err := ledger.ReadPaths("ftbench", os.Stderr, o.vetoPaths)
		if err != nil {
			die("-veto", err)
		}
		veto = ledger.Analyze(recs).Miner
	}
	var jsonFile *os.File
	if o.jsonPath != "" {
		if jsonFile, err = os.Create(o.jsonPath); err != nil {
			die("-json", err)
		}
	}
	var lw *ledger.Writer
	var ledgerFlush func()
	if o.ledgerPath != "" {
		f, err := os.Create(o.ledgerPath)
		if err != nil {
			die("-ledger", err)
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		lw = ledger.NewWriter(bw)
		ledgerFlush = func() {
			err := lw.Err()
			if err == nil {
				err = bw.Flush()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				die("-ledger", err)
			}
			fmt.Printf("(wrote %s: %d records)\n", o.ledgerPath, lw.Records())
		}
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			die("-cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die("-cpuprofile", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: -cpuprofile: close: %v\n", err)
			}
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // report the retained live set, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: -memprofile: close: %v\n", err)
			}
		}()
	}

	// study is what every fault study below shares; campObs accumulates
	// per-worker campaign counters across them. report holds the experiment
	// results for -json, which deliberately excludes wall-clock and worker
	// counters so a serial and a parallel run of the same seed produce
	// byte-identical files.
	campObs := obs.NewCampaignMetrics(o.parallel)
	study := bench.StudyOptions{Crashes: o.crashes, Workers: o.parallel, CampaignObs: campObs, Ledger: lw, Veto: veto}
	report := map[string]any{}

	run := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			die(name, err)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	want := func(name string) bool { return o.experiment == "all" || o.experiment == name }

	if want("fig8") {
		apps := bench.Fig8Apps
		if o.app != "" {
			apps = []string{o.app}
		}
		var sweeps []*bench.Fig8Result
		for _, a := range apps {
			a := a
			run("fig8/"+a, func() error {
				res, err := bench.Fig8(a, o.scale, o.parallel, lw)
				if err != nil {
					return err
				}
				res.Print(os.Stdout)
				sweeps = append(sweeps, res)
				return nil
			})
		}
		report["fig8"] = sweeps
	}
	if want("table1") {
		run("table1", func() error {
			res, err := bench.Table1(study)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			report["table1"] = res
			return nil
		})
	}
	if want("table2") {
		run("table2", func() error {
			res, err := bench.Table2(study)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			report["table2"] = res
			return nil
		})
	}
	// "veto" is not part of "all": the two-phase campaign re-runs table1
	// twice per app and exists to measure the mined policy, not the paper.
	if o.experiment == "veto" {
		apps := []string{"nvi"}
		if o.app != "" {
			apps = []string{o.app}
		}
		var outs []*bench.VetoResult
		for _, a := range apps {
			a := a
			run("veto/"+a, func() error {
				res, err := bench.VetoCampaign(a, study)
				if err != nil {
					return err
				}
				res.Print(os.Stdout)
				outs = append(outs, res)
				return nil
			})
		}
		report["veto"] = outs
	}
	// "fleet" is not part of "all": it is a scalability benchmark, not one
	// of the paper's experiments, and its 10⁴-proc cells dominate wall time.
	if o.experiment == "fleet" {
		run("fleet", func() error {
			res, err := bench.FleetCurves(fleetSizes)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			report["fleet"] = res
			return nil
		})
	}
	if want("space") {
		run("space", func() error {
			bench.PrintSpace(os.Stdout)
			return nil
		})
	}

	if campObs.Dispatched+campObs.SerialRuns > 0 {
		campObs.WriteSummary(os.Stderr)
	}
	if ledgerFlush != nil {
		ledgerFlush()
	}
	if jsonFile != nil {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			_, err = jsonFile.Write(append(buf, '\n'))
		}
		if cerr := jsonFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die("-json", err)
		}
		fmt.Printf("(wrote %s)\n", o.jsonPath)
	}
}
