package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the single table the harness, `--list`, the comparison tool
// and the checked-in BENCHMARK.json are all generated from; a test fails
// when BENCHMARK.json drifts from it.

// Sizes and repetition floors. They are constants so that two commits
// always run identical work; a run repeats the workload for --seconds but
// never fewer than minReps times.
const (
	runSeconds = 20 // BENCHMARK.json run_seconds; the 5-repetition floor makes most runs a little longer
	minReps    = 5  // timed repetitions per --trace 0 run, whatever --seconds says
	traceBase  = 2  // untraced repetitions a --trace 1 run makes for its overhead base
	setupReps  = 5  // set-ups (input generation + reduced warm-up) per run; setup_s is their median

	crashTarget = 50 // the paper's crashes per fault type (at most 12x as many runs, as ftbench)
	warmTarget  = 5  // crash target of the reduced warm-up campaign

	fleetProcs     = 100_000
	fleetRounds    = 8
	warmFleetProcs = 10_000

	quantumSteps = 2048 // scheduling decisions per latency sample on fig8_sweep and fleet_sched

	driveCalls   = 10_000 // calls per layer drive
	sessionPairs = 20     // clean + stop-failure shim sessions per app on tables_*
)

// Session seeds are the ones ftbench regenerates the paper's numbers with.
// They are not derived from --seed: between session seeds the tables' run
// count moves ±10 %, allocations per run ±10 % and bytes per run ±20 %
// (README, "Why --seed orders the work"), which would swamp every bound
// below. --seed instead orders the independent jobs of a repetition (and is
// the fleet's world seed, which the fleet programs never draw from).
const (
	studySeed = 1
	fig8Seed  = 11
)

// fig8Scales sizes the four Figure 8 apps so each is 20–30 % of a repetition.
var fig8Scales = map[string]int{"nvi": 60, "magic": 20, "xpilot": 40, "treadmarks": 30}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// op is what allocs_per_op and alloc_kb_per_op divide by; run is what
	// run_ms_p50 / run_ms_p99 time.
	op, run string
}

var workloads = []workloadSpec{
	{"tables_commit",
		"Table 1 + Table 2 as ftbench runs them (CPVS, 50 crashes/type, 4485 runs): half the wall is dc commit = app marshal + vista page hash; where O(dirty) commits must show.",
		"injection run", "injection run"},
	{"tables_log",
		"Same studies under CBNDVS-LOG: dc logs instead of committing, so app step, kernel, fork and constrained replay dominate; commit-path work must predict no change here.",
		"injection run", "injection run"},
	{"fig8_sweep",
		"Failure-free Figure 8: nvi/magic/xpilot/treadmarks, baseline + 7 protocols x {rio,disk}; commits on all four apps incl. 2PC, no forks or rollback: fork/recovery work must predict no change.",
		"world step", "2048-step quantum"},
	{"fleet_sched",
		"10^5-process echo fleet, 8 rounds, no recovery layer (5.1 M scheduling decisions): scheduler, Ctx send/recv and arenas do all the work; the bypass for every commit-path change.",
		"world step", "2048-step quantum"},
}

// metricSpec is one metric row. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Doc    string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are measured with tracing off, as medians over the timed
// repetitions of one run. The time metrics take the median per run index
// first (typicalRep) and are divided by the run's host slowdown (ref.go);
// the others are medians per repetition.
var endToEnd = []metricSpec{
	{"wall_s", "s", lower, 0.25, "wall clock to complete the workload once at nominal host speed, every run at its median cost over the repetitions"},
	{"run_ms_p50", "ms", lower, 0.25, "median over runs of a run's latency (injection run, or a 2048-step quantum)"},
	{"run_ms_p99", "ms", lower, 0.25, "99th percentile over runs: the runs that are expensive every time"},
	{"ns_per_step", "ns", lower, 0.25, "wall / simulated world steps delivered (ledger wsteps on tables_*)"},
	{"allocs_per_op", "count", lower, 0.01, "runtime.MemStats.Mallocs delta / ops"},
	{"alloc_kb_per_op", "KiB", lower, 0.01, "runtime.MemStats.TotalAlloc delta / ops"},
	{"peak_rss_mb", "MiB", lower, 0.25, "resident-set high-water mark of one repetition, the lowest of the run's (GC overshoot only adds)"},
	{"setup_s", "s", lower, 0.25, "input generation + reduced warm-up (median of 5) + per-rep world construction kept outside the timed region"},
}

// perLayer metrics come from the traced repetition, the shim sessions and
// the layer drives of a --trace 1 run. Doc names the end-to-end metric each
// should move and where.
var perLayer = []metricSpec{
	{"sim.self_s", "s", lower, 0, "scheduler pick/reindex + step loop + world construction; moves ns_per_step on fleet_sched"},
	{"sim.steps", "count", lower, 0, "world steps in the traced region"},
	{"sim.sched_updates", "count", lower, 0, "readiness-index reindex operations"},
	{"sim.forks", "count", lower, 0, "worlds forked from snapshots by the campaign (0 on fig8_sweep, fleet_sched)"},
	{"sim.fork_busy_s", "s", lower, 0, "wall spent in World.Fork by the campaign; moves run_ms_p50 on tables_log"},
	{"sim.fork_mean_ns", "ns", lower, 0, "mean campaign fork latency"},
	{"sim.fork_drive_ns", "ns", lower, 0, "drive: mean of 10k COW forks of a frozen mid-session nvi world"},
	{"apps.step_self_s", "s", lower, 0, "Program.Step self time incl. sim.Ctx glue; moves ns_per_step / run_ms_p50"},
	{"apps.marshal_s", "s", lower, 0, "Marshal*/Unmarshal* busy; moves wall_s on tables_commit, fig8_sweep"},
	{"apps.marshal_calls", "count", lower, 0, "Marshal*/Unmarshal* calls"},
	{"apps.marshal_kb", "KiB", lower, 0, "state bytes (de)serialized"},
	{"vista.busy_s", "s", lower, 0, "mirror segment SetContents+Commit on the identical image stream, carved out of dc"},
	{"vista.pages_hashed", "count", lower, 0, "pages the mirror segments hashed: every page of every committed image"},
	{"vista.pages_dirty", "count", lower, 0, "pages the commits actually dirtied"},
	{"vista.dirty_page_ratio", "ratio", higher, 0, "pages_dirty / pages_hashed: the waste O(dirty) removes"},
	{"vista.hash_hits", "count", lower, 0, "clean pages skipped via the hash cache"},
	{"vista.commit_kb", "KiB", lower, 0, "dirty payload the mirror commits persisted"},
	{"dc.self_s", "s", lower, 0, "recovery-layer self time (bookkeeping, ND log, rollback) minus marshal, kernel save, vista"},
	{"dc.commits", "count", lower, 0, "commits executed"},
	{"dc.log_records", "count", lower, 0, "ND log records written"},
	{"dc.rollbacks", "count", lower, 0, "rollbacks performed"},
	{"dc.replayed_events", "count", lower, 0, "events executed under constrained re-execution; moves run_ms_p99 on tables_log"},
	{"dc.two_phase_rounds", "count", lower, 0, "coordinated commit rounds"},
	{"dc.commit_drive_ns", "ns", lower, 0, "drive: mean of 10k DC.Checkpoint of an unchanged mid-session nvi process"},
	{"dc.rollback_drive_ns", "ns", lower, 0, "drive: mean of 10k DC.Rollback of the same process"},
	{"kernel.busy_s", "s", lower, 0, "OS.Call busy; moves run_ms_p50 on tables_log"},
	{"kernel.calls", "count", lower, 0, "OS.Call calls"},
	{"kernel.save_s", "s", lower, 0, "SaveProcState/RestoreProcState busy"},
	{"stablestore.commit_virtual_s", "virtual_s", lower, 0, "simulated commit time (dc.Stats.CommitTime); must be bit-identical across perf PRs"},
	{"faults.table1_wall_s", "s", lower, 0, "wall of the two Table 1 campaigns in the traced repetition"},
	{"faults.table2_wall_s", "s", lower, 0, "wall of the two Table 2 campaigns"},
	{"faults.first_record_s", "s", lower, 0, "campaign start to first ledger record, summed: clean run + template + snapshot capture"},
	{"faults.snapshots", "count", lower, 0, "prefix snapshots captured"},
	{"faults.steps_saved", "count", higher, 0, "clean-prefix steps forks did not re-execute"},
	{"faults.steps_replayed_per_run", "count", lower, 0, "clean-prefix steps re-executed per activated run"},
	{"faults.pages_privatized", "count", lower, 0, "COW pages privatized by forks"},
	{"faults.cow_kb", "KiB", lower, 0, "bytes copied privatizing them"},
	{"faults.store_hits", "count", higher, 0, "snapshot-store hits (0: the studies wire no store)"},
	{"faults.crash_yield", "ratio", higher, 0, "crashes / injection runs"},
	{"fig8.nvi_wall_s", "s", lower, 0, "wall of the 15 nvi cells"},
	{"fig8.magic_wall_s", "s", lower, 0, "wall of the 15 magic cells"},
	{"fig8.xpilot_wall_s", "s", lower, 0, "wall of the 15 xpilot cells"},
	{"fig8.treadmarks_wall_s", "s", lower, 0, "wall of the 15 treadmarks cells"},
	{"campaign.par_wall_s", "s", lower, 0, "one tables_commit repetition at Parallel=nproc (informational)"},
	{"campaign.par_speedup_x", "x", higher, 0, "serial median wall / par_wall_s"},
	{"campaign.dispatched", "count", lower, 0, "runs dispatched by that repetition"},
	{"campaign.discarded", "count", lower, 0, "speculative overshoot it discarded"},
	{"ledger.append_drive_ns", "ns", lower, 0, "drive: mean of 10k Writer.Append to io.Discard; moves run_ms_p50"},
	{"ledger.records", "count", lower, 0, "records in the traced repetition's ledgers"},
	{"ledger.kb", "KiB", lower, 0, "their size"},
	{"ledger.mine_s", "s", lower, 0, "ReadAll + Analyze of them (off the campaign path)"},
	{"ledger.crosscheck_mismatches", "count", lower, 0, "mined-machine cross-check mismatches (must be 0)"},
	{"trace.wall_s", "s", lower, 0, "wall the layer self-times and trace.self_s sum to"},
	{"trace.self_s", "s", lower, 0, "shim clock reads + mirror re-marshal and commit, booked to no layer"},
	{"trace.overhead_pct", "%", lower, 0, "traced repetition wall vs untraced median"},
}

// benchmarkFile is BENCHMARK.json, with exactly the contract's keys.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedJSON struct {
	metricJSON
	Bound float64 `json:"bound"`
}

// benchmarkJSON renders the table as BENCHMARK.json.
func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedJSON{metricJSON{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, metricJSON{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err) // the table holds only strings and numbers
	}
	return append(b, '\n')
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(name string) (metricSpec, bool) {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// printList writes the human-readable form of the table.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads (run_seconds %d, at least %d timed repetitions each):\n", runSeconds, minReps)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s op: %s; run: %s\n      %s\n", wl.Name, wl.op, wl.run, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %s is better, bound %4.1f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-9s %s is better  %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
}
