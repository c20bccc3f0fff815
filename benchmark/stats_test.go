package main

import (
	"testing"

	"failtrans/internal/obs/ledger"
)

// Self time is a span's duration minus what its children covered, so on
// any nesting the layers sum to the root.
func TestSelfTimesSumToRoot(t *testing.T) {
	var clock int64
	tr := newTracer()
	tr.clock = func() int64 { return clock }
	tick := func(ns int64) { clock += ns }

	tr.enter(layerSim) // root: 5 + step + 7 + step' = 5+60+7+25 = 97
	tick(5)
	tr.enter(layerStep) // 10 + dc + 6 = 60
	tick(10)
	tr.enter(layerDC) // 3 + marshal 20 + kernel.save 4 + trace 15 + 2 = 44
	tick(3)
	start := tr.clock()
	tick(20)
	tr.leaf(layerMarshal, start)
	start = tr.clock()
	tick(4)
	tr.leaf(layerKernelSave, start)
	tr.enter(layerTrace)
	tick(15)
	tr.exit()
	tick(2)
	tr.exit()
	tick(6)
	tr.exit()
	tick(7)
	tr.enter(layerStep)
	tick(25)
	tr.exit()
	tr.exit()

	want := [numLayers]int64{layerSim: 12, layerStep: 41, layerMarshal: 20, layerDC: 5, layerKernelSave: 4, layerTrace: 15}
	if tr.self != want {
		t.Errorf("self times %v, want %v", tr.self, want)
	}
	var sum int64
	for _, s := range tr.self {
		sum += s
	}
	if sum != tr.wall || tr.wall != 97 {
		t.Errorf("layers sum to %d, root is %d, want 97", sum, tr.wall)
	}
	if a := tr.accs[layerStep][layerSim]; a.Calls != 2 || a.Busy != 85 {
		t.Errorf("step-under-sim accumulator %+v, want 2 calls, 85 ns", a)
	}
	if a := tr.accs[layerMarshal][layerDC]; a.Calls != 1 || a.Busy != 20 {
		t.Errorf("marshal-under-dc accumulator %+v", a)
	}

	// Settling moves the shims' own cost into the trace layer and nothing else.
	settled := tr.settle(1, 0.5)
	var total float64
	for _, s := range settled {
		total += s
	}
	if total != 97 {
		t.Errorf("settled layers sum to %v, want 97", total)
	}
	if settled[layerTrace] <= 15 || settled[layerMarshal] != 19 {
		t.Errorf("settled %v: want trace above 15 and marshal 19", settled)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarizeLatencies(make([]int64, 4485))
	if s.TailPct != 99 || s.N != 4485 {
		t.Errorf("one tables repetition: %+v", s)
	}
}

func TestQuantilesAndSpread(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if m := median(v); m != 3 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if s := spread(v); s != (4.5-1.5)/3.0 {
		t.Errorf("spread = %v", s)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	if s := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); s != (5.25-1.75)/3.5 {
		t.Errorf("spread of ten = %v", s)
	}
	if v[0] != 4 {
		t.Error("median sorted its argument in place")
	}
}

// The ledger writes its header once and then once per record, so the
// stamping writer yields exactly one gap per record, none for the header.
func TestStampWriterAttributesOneGapPerRecord(t *testing.T) {
	sw := newStampWriter()
	lw := ledger.NewWriter(sw)
	if len(sw.stamps) != 1 {
		t.Fatalf("header made %d writes, want 1", len(sw.stamps))
	}
	if g := sw.gaps(); len(g) != 0 {
		t.Fatalf("header alone yields %d gaps", len(g))
	}
	const n = 7
	for i := 0; i < n; i++ {
		rec := ledger.Get()
		rec.Run = i
		rec.Study, rec.App, rec.Protocol, rec.Medium, rec.Kind = "table1", "nvi", "CPVS", "rio", "none"
		lw.Append(rec)
		ledger.Put(rec)
	}
	if err := lw.Err(); err != nil {
		t.Fatal(err)
	}
	g := sw.gaps()
	if len(g) != n || int64(len(g)) != lw.Records() {
		t.Fatalf("%d gaps for %d records", len(g), lw.Records())
	}
	var sum int64
	for _, d := range g {
		if d < 0 {
			t.Errorf("negative gap %d", d)
		}
		sum += d
	}
	if want := sw.stamps[n] - sw.stamps[0]; sum != want {
		t.Errorf("gaps sum to %d, header-to-last-record is %d", sum, want)
	}
}

func TestJudge(t *testing.T) {
	low := metricSpec{Name: "wall_s", Better: lower, Bound: 0.08}
	high := metricSpec{Name: "speedup", Better: higher, Bound: 0.08}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"within bound", low, []float64{10, 10.1, 9.9}, []float64{10.3, 10.4, 10.2}, same},
		{"slower", low, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, worse},
		{"faster", low, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, better},
		{"noisy overlap", low, []float64{8, 10, 12, 14}, []float64{7, 9, 13, 15}, unresolved},
		{"noisy but every run wins", low, []float64{10, 12, 14, 16}, []float64{4, 5, 6, 7}, better},
		{"noisy and every run loses", low, []float64{4, 5, 6, 7}, []float64{10, 12, 14, 16}, worse},
		{"higher is better", high, []float64{2, 2, 2}, []float64{2.5, 2.5, 2.5}, better},
		{"higher got lower", high, []float64{2, 2, 2}, []float64{1.5, 1.5, 1.5}, worse},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// typicalRep takes the median per run index: a burst that hits one
// repetition moves neither the wall nor the percentiles.
func TestTypicalRepFiltersOneDisturbedRepetition(t *testing.T) {
	quiet := func() rep { return rep{wall: 100 + 1 + 2 + 3 + 40, lat: []int64{1, 2, 3, 40}} }
	reps := []rep{quiet(), quiet(), quiet()}
	reps[1].lat = []int64{1, 900, 3, 40} // a stall lands on run 1 of repetition 1
	reps[1].wall += 898
	lat, wall, ok := typicalRep(reps)
	if !ok || len(lat) != 4 || lat[1] != 2 || lat[3] != 40 {
		t.Errorf("typical latencies %v, ok %v", lat, ok)
	}
	if want := 146e-9; wall < want*0.999 || wall > want*1.001 {
		t.Errorf("typical wall %v s, want %v s", wall, want)
	}
	reps[2].lat = reps[2].lat[:3]
	if _, _, ok := typicalRep(reps); ok {
		t.Error("repetitions with different run counts were accepted")
	}
}

// The host correction divides every time metric, and nothing else, by the
// reference's slowdown: the same work on a host twice as slow reads the same.
func TestHostCorrectionScalesTimeMetricsOnly(t *testing.T) {
	run := func(slow int64) []rep {
		var reps []rep
		for i := int64(0); i < 3; i++ {
			reps = append(reps, rep{
				wall: slow * (1000 + i), prep: slow * 50, lat: []int64{slow * 100, slow * 300, slow * (500 + i)},
				ops: 3, steps: 10, mallocs: 30, allocBytes: 3 << 10, peakRSS: float64(7 + 10*i), // the collector overshoots after the first
			})
		}
		return reps
	}
	nominal, _, ok := endToEndValues(run(1), 2, 1)
	slow, _, ok2 := endToEndValues(run(2), 4, 2)
	if !ok || !ok2 {
		t.Fatal("repetitions rejected")
	}
	for _, m := range endToEnd {
		a, b := nominal[m.Name], slow[m.Name]
		if a <= 0 || b < a*0.999999 || b > a*1.000001 {
			t.Errorf("%s: %v at nominal speed, %v corrected from a host twice as slow", m.Name, a, b)
		}
	}
	raw, _, _ := endToEndValues(run(2), 4, 1)
	for _, name := range []string{"wall_s", "run_ms_p50", "run_ms_p99", "ns_per_step", "setup_s"} {
		if r := raw[name] / nominal[name]; r < 1.999 || r > 2.001 {
			t.Errorf("%s: uncorrected ratio %v, want 2", name, r)
		}
	}
	if nominal["peak_rss_mb"] != 7 {
		t.Errorf("peak_rss_mb = %v, want the lowest repetition's 7", nominal["peak_rss_mb"])
	}
	for _, name := range []string{"allocs_per_op", "alloc_kb_per_op", "peak_rss_mb"} {
		if raw[name] != nominal[name] {
			t.Errorf("%s moved with the host: %v vs %v", name, raw[name], nominal[name])
		}
	}
}

// The reference kernels run, and a sample is a plausible duration.
func TestReferenceSample(t *testing.T) {
	if ns := refSample(); ns < 1e6 || ns > 60e9 {
		t.Errorf("one reference sample took %d ns", ns)
	}
	r := reference{samples: []float64{refNominalNs, 2 * refNominalNs, 3 * refNominalNs}}
	if s := r.slowdown(); s != 2 {
		t.Errorf("slowdown = %v, want 2", s)
	}
}
