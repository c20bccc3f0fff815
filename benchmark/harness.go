package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"

	"failtrans/internal/protocol"
)

// workload is one study the harness can repeat.
type workload interface {
	// warm runs the reduced-size warm-up repetition.
	warm(env *env) error
	// rep runs one full repetition. With a tracer it is the traced
	// repetition and reports its layer metrics through env.
	rep(env *env, t *tracer, spans *spanLog, parent int) (rep, error)
	// layers runs the trace tier's instruments beyond the traced
	// repetition; base is the untraced median wall in seconds.
	layers(env *env, t *tracer, base float64) error
}

// newWorkload returns the implementation of a workload in the table.
func newWorkload(name string) workload {
	switch name {
	case "tables_commit":
		return &tablesWorkload{pol: protocol.CPVS, par: true}
	case "tables_log":
		return &tablesWorkload{pol: protocol.CBNDVSLog}
	case "fig8_sweep":
		return &fig8Workload{cells: fig8Cells()}
	case "fleet_sched":
		return &fleetWorkload{}
	}
	panic("benchmark: workload " + name + " is in the table but not implemented")
}

// rep is what one repetition measured.
type rep struct {
	wall       int64 // ns of the timed region
	prep       int64 // ns of per-rep world construction outside it
	ops        int64 // what allocs_per_op divides by
	steps      int64 // simulated world steps delivered
	attempted  int64
	failed     int64
	mallocs    uint64
	allocBytes uint64
	lat        []int64 // ns per run
	digest     uint64
	peakRSS    float64 // MiB, of this repetition alone
}

// env is one run's context: the seed, and where checks and layer metrics
// are reported.
type env struct {
	seed     int64
	out      io.Writer
	digest   uint64 // of the first repetition; every other must match
	layers   map[string]float64
	failures []string
}

// order is the seed's permutation of a repetition's n independent jobs.
func (e *env) order(n int) []int { return rand.New(rand.NewSource(e.seed)).Perm(n) }

func (e *env) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.failures = append(e.failures, msg)
	fmt.Fprintln(e.out, "CHECK FAILED:", msg)
}

// layer reports one per-layer metric; the name must be in the table.
func (e *env) layer(name string, v float64) {
	if _, ok := findMetric(name); !ok {
		panic("benchmark: layer metric " + name + " is not in the table")
	}
	e.layers[name] = v
}

// layerSplit settles the tracer and reports the layer self times and the
// counters of the instrumented worlds, checking that they reconcile.
func (e *env) layerSplit(t *tracer, lc *layerCounts) {
	inside, outside := spanCost()
	self := t.settle(inside, outside)
	// Vista ran inside dc's spans; the mirror measured how long.
	vista := math.Min(float64(lc.vistaBusy), self[layerDC])
	self[layerDC] -= vista

	e.layer("sim.self_s", self[layerSim]/1e9)
	e.layer("sim.steps", float64(lc.steps))
	e.layer("sim.sched_updates", float64(lc.schedUpdates))
	e.layer("apps.step_self_s", self[layerStep]/1e9)
	e.layer("apps.marshal_s", self[layerMarshal]/1e9)
	e.layer("apps.marshal_calls", float64(t.calls(layerMarshal)))
	e.layer("apps.marshal_kb", float64(t.bytes)/1024)
	e.layer("vista.busy_s", vista/1e9)
	hashed := lc.vistaPages
	e.layer("vista.pages_hashed", float64(hashed))
	e.layer("vista.pages_dirty", float64(lc.pagesDirty))
	if hashed > 0 {
		e.layer("vista.dirty_page_ratio", float64(lc.pagesDirty)/float64(hashed))
	}
	e.layer("vista.hash_hits", float64(lc.hashHits))
	e.layer("vista.commit_kb", float64(lc.commitBytes)/1024)
	e.layer("dc.self_s", self[layerDC]/1e9)
	e.layer("dc.commits", float64(lc.commits))
	e.layer("dc.log_records", float64(lc.logRecords))
	e.layer("dc.rollbacks", float64(lc.rollbacks))
	e.layer("dc.replayed_events", float64(lc.replayed))
	e.layer("dc.two_phase_rounds", float64(lc.twoPhase))
	e.layer("kernel.busy_s", self[layerKernel]/1e9)
	e.layer("kernel.calls", float64(t.calls(layerKernel)))
	e.layer("kernel.save_s", self[layerKernelSave]/1e9)
	e.layer("stablestore.commit_virtual_s", lc.commitTime.Seconds())
	e.layer("trace.self_s", self[layerTrace]/1e9)
	e.layer("trace.wall_s", seconds(t.wall))

	sum := vista
	for _, s := range self {
		sum += s
	}
	if wall := float64(t.wall); math.Abs(sum-wall) > 0.02*wall {
		e.fail("layers sum to %.4fs, traced wall is %.4fs", sum/1e9, wall/1e9)
	}
}

// checkRep folds one repetition into the run's digest check.
func (e *env) checkRep(what string, r rep) {
	if e.digest == 0 {
		e.digest = r.digest
	} else if r.digest != e.digest {
		e.fail("%s: results_digest %016x differs from the first repetition's %016x", what, r.digest, e.digest)
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so that
// each repetition reports a peak of its own and the run their median — a
// process-lifetime maximum is set by the unluckiest GC cycle of the whole
// run and moved 20–40 % between runs. Where the reset is not available the
// peak stays the lifetime one.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the resident-set high-water mark since the last reset.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if i := bytes.Index(b, []byte("VmHWM:")); i >= 0 {
			var kib float64
			if _, err := fmt.Sscanf(string(b[i+len("VmHWM:"):]), "%f kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// info is the line before it: what a comparison needs beyond the metrics.
type info struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Digest   string    `json:"results_digest"`
	Reps     int       `json:"reps"`
	Samples  int       `json:"latency_samples"`
	TailPct  float64   `json:"tail_percentile"`
	TailMs   float64   `json:"tail_ms"`
	RepWalls []float64 `json:"rep_wall_s"` // as the clock read them, uncorrected
	RepPeaks []float64 `json:"rep_peak_rss_mb"`
	Host     float64   `json:"host_slowdown"` // reference kernels vs nominal; the time metrics are divided by it
	HostN    int       `json:"host_samples"`
	TraceOut string    `json:"trace_file,omitempty"`
}

// typicalRep condenses identical repetitions into one in which every run
// costs its median over the repetitions. Run i is the same work in every
// repetition, so the median over repetitions filters what the host did to
// one of them — a burst of steal time, a GC cycle landing on that run — and
// keeps what the run itself costs. The wall is the sum of those medians plus
// the median of what no run accounts for (world construction, partial
// quanta); percentiles over the typical runs describe which runs are
// expensive, not which were unlucky. Latencies come back in ns, the wall in
// seconds; ok is false when the repetitions disagree on their run count.
func typicalRep(reps []rep) (lat []int64, wall float64, ok bool) {
	n := len(reps[0].lat)
	rest := make([]float64, len(reps))
	for i, r := range reps {
		if len(r.lat) != n {
			return reps[0].lat, seconds(reps[0].wall), false
		}
		sum := int64(0)
		for _, d := range r.lat {
			sum += d
		}
		rest[i] = float64(r.wall - sum)
	}
	lat = make([]int64, n)
	col := make([]float64, len(reps))
	total := median(rest)
	for i := range lat {
		for j, r := range reps {
			col[j] = float64(r.lat[i])
		}
		m := median(col)
		lat[i] = int64(m)
		total += m
	}
	return lat, total / 1e9, true
}

// endToEndValues condenses a run's repetitions into its end-to-end metrics.
// setup is the median set-up in seconds; host is the reference's slowdown,
// by which every time metric — and nothing else — is divided. ok is false
// when the repetitions disagree on their run count.
func endToEndValues(reps []rep, setup, host float64) (map[string]float64, latencySummary, bool) {
	per := func(f func(rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	typical, wall, ok := typicalRep(reps)
	ls := summarizeLatencies(typical)
	ls.P50, ls.P99, ls.Tail = ls.P50/host, ls.P99/host, ls.Tail/host
	wall /= host
	// A repetition's high-water mark is what it needs plus however far the
	// collector happened to overshoot (three in ten fig8_sweep repetitions
	// spike from 18 to 23–34 MiB); the overshoot only ever adds, so the
	// lowest repetition is the steady reading.
	peak := reps[0].peakRSS
	for _, r := range reps {
		peak = math.Min(peak, r.peakRSS)
	}
	return map[string]float64{
		"wall_s":          wall,
		"run_ms_p50":      ls.P50,
		"run_ms_p99":      ls.P99,
		"ns_per_step":     1e9 * wall / float64(reps[0].steps),
		"allocs_per_op":   per(func(r rep) float64 { return float64(r.mallocs) / float64(r.ops) }),
		"alloc_kb_per_op": per(func(r rep) float64 { return float64(r.allocBytes) / 1024 / float64(r.ops) }),
		"peak_rss_mb":     peak,
		"setup_s":         (setup + per(func(r rep) float64 { return seconds(r.prep) })) / host,
	}, ls, ok
}

// setUp generates the inputs and runs the reduced warm-up n times; the
// median is the run's set-up time.
func setUp(wl workload, e *env, n int) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		start := now()
		if err := wl.warm(e); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, seconds(now()-start))
	}
	return median(times), nil
}

// runWorkload measures one workload for one tier and prints the result.
// secs is the measuring time; outDir receives the trace file.
func runWorkload(spec workloadSpec, seed int64, secs float64, traced bool, outDir string, out io.Writer) (result, info, error) {
	wl := newWorkload(spec.Name)
	e := &env{seed: seed, out: out, layers: map[string]float64{}}
	spans := &spanLog{workload: spec.Name}
	res := result{Metrics: map[string]metricValue{}}
	inf := info{Workload: spec.Name, Seed: seed, Trace: traced}

	self, err := os.Executable()
	if err != nil {
		return res, inf, err
	}
	ref := &reference{self: self}
	if err := ref.sample(); err != nil {
		return res, inf, err
	}
	setups := setupReps
	if traced {
		setups = 1
	}
	setup, err := setUp(wl, e, setups)
	if err != nil {
		return res, inf, err
	}
	if err := ref.sample(); err != nil {
		return res, inf, err
	}

	// Timed repetitions, tracing off.
	var reps []rep
	measureStart := now()
	for n := 0; ; n++ {
		if traced && n == traceBase {
			break
		}
		// Stop at the repetition boundary nearest to secs.
		if elapsed := seconds(now() - measureStart); !traced && n >= minReps && elapsed+elapsed/float64(2*n) >= secs {
			break
		}
		id := spans.begin(fmt.Sprintf("rep %d", n), -1)
		runtime.GC() // the previous repetition's garbage must not count towards this one's peak
		resetPeakRSS()
		r, err := wl.rep(e, nil, nil, id)
		spans.end(id)
		if err != nil {
			return res, inf, fmt.Errorf("repetition %d: %w", n, err)
		}
		r.peakRSS = peakRSSMiB()
		e.checkRep(fmt.Sprintf("repetition %d", n), r)
		reps = append(reps, r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err := ref.sample(); err != nil {
			return res, inf, err
		}
	}
	inf.Host, inf.HostN = ref.slowdown(), len(ref.samples)
	values, ls, ok := endToEndValues(reps, setup, inf.Host)
	if !ok {
		e.fail("repetitions disagree on their number of runs")
	}
	inf.Reps, inf.Samples, inf.TailPct, inf.TailMs = len(reps), ls.N, ls.TailPct, ls.Tail
	for _, r := range reps {
		inf.RepWalls = append(inf.RepWalls, seconds(r.wall))
		inf.RepPeaks = append(inf.RepPeaks, r.peakRSS)
	}

	if !traced {
		if ls.N < 1000 {
			e.fail("only %d runs per repetition: the 99th percentile needs 1000", ls.N)
		}
	} else {
		values = map[string]float64{}
		_, wall, _ := typicalRep(reps) // uncorrected: the traced repetition is compared clock to clock
		t := newTracer()
		id := spans.begin("traced rep", -1)
		r, err := wl.rep(e, t, spans, id)
		spans.end(id)
		if err != nil {
			return res, inf, fmt.Errorf("traced repetition: %w", err)
		}
		e.checkRep("traced repetition", r)
		res.Attempted += r.attempted
		res.Failed += r.failed
		e.layer("trace.overhead_pct", 100*(seconds(r.wall)-wall)/wall)
		if err := wl.layers(e, t, wall); err != nil {
			return res, inf, fmt.Errorf("layer instruments: %w", err)
		}
		if _, ok := e.layers["trace.wall_s"]; !ok {
			return res, inf, fmt.Errorf("no layer split was reported")
		}
		for _, m := range perLayer {
			values[m.Name] = e.layers[m.Name] // a layer the workload starves reads 0
		}
		path, err := writeTrace(outDir, spans, t)
		if err != nil {
			return res, inf, err
		}
		inf.TraceOut = path
	}

	inf.Digest = fmt.Sprintf("%016x", e.digest)
	res.Correct = len(e.failures) == 0 && res.Failed == 0
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	fmt.Fprintf(out, "%s seed %d: %d untraced repetitions, %d latency samples (p%g = %.4f ms); host %.3fx nominal (%d reference samples)\n",
		spec.Name, seed, len(reps), ls.N, ls.TailPct, ls.Tail, inf.Host, inf.HostN)
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		fmt.Fprintf(out, "  %-30s %16.6f %s\n", m.Name, values[m.Name], m.Unit)
	}
	fmt.Fprintf(out, "  ops_attempted %d ops_failed %d results_digest %s\n", res.Attempted, res.Failed, inf.Digest)
	return res, inf, nil
}

// printResult writes the info line and then, last, the result line.
func printResult(out io.Writer, res result, inf info) error {
	ib, err := json.Marshal(inf)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "info %s\n%s\n", ib, rb)
	return err
}
