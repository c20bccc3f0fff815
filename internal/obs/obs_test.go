package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"failtrans/internal/event"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 20, -5} {
		h.Observe(v)
	}
	if h.Count != 7 {
		t.Errorf("count = %d, want 7", h.Count)
	}
	if h.Max != 1<<20 {
		t.Errorf("max = %d, want %d", h.Max, 1<<20)
	}
	if h.Buckets[0] != 2 { // the zero and the clamped negative
		t.Errorf("zero bucket = %d, want 2", h.Buckets[0])
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1<<20 {
		t.Errorf("p50 = %d out of range", q)
	}
	if q := h.Quantile(1.0); q != 1<<20 {
		t.Errorf("p100 = %d, want max", q)
	}
	h2 := Histogram{}
	h2.ObserveDuration(3 * time.Microsecond)
	if h2.Sum != 3000 {
		t.Errorf("duration observed as %d ns, want 3000", h2.Sum)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(200, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Observe allocates %.1f times per run, want 0", n)
	}
}

func TestMetricsSnapshotDeterministic(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics(2)
		m.Events[0] = &EventCounts{}
		m.Events[0].Events[1] = 3
		m.Hists(0).CommitLatency.Observe(1500)
		m.Procs[1].Rollbacks = 2
		m.VistaBlock(1).PagesDirtied = 9
		m.Syscall(0, "open")
		m.Syscall(0, "read")
		m.Syscall(1, "read")
		m.Steps = 42
		return m
	}
	a := build().Snapshot()
	b := build().Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	s := string(a)
	for _, want := range []string{"steps 42", "syscall open 1", "syscall read 2", "proc 0", "vista 1", "commit_latency_ns count=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %q:\n%s", want, s)
		}
	}
}

func TestMetricsSummarize(t *testing.T) {
	m := NewMetrics(2)
	m.Procs[0].Commits = 2
	m.Hists(0).CommitLatency.Observe(1000)
	m.Hists(0).CommitLatency.Observe(3000)
	m.Procs[1].Commits = 1
	m.Hists(1).CommitLatency.Observe(8000)
	m.Procs[1].Syscalls = 5
	m.TwoPhaseRounds = 4
	m.VistaBlock(0).PagesDirtied = 7
	// Process 0's event block is attached, process 1's is not and reads as
	// zero counts.
	m.Events[0] = &EventCounts{Events: [event.KindCount]int64{event.Send: 4, event.Receive: 2}, EffectivelyND: 3}
	s := m.Summarize()
	if s.Commits != 3 || s.Syscalls != 5 || s.TwoPhaseRounds != 4 || s.VistaPagesDirty != 7 ||
		s.Events != 6 || s.EffectivelyND != 3 {
		t.Errorf("summary wrong: %+v", s)
	}
	if s.CommitMaxNs != 8000 {
		t.Errorf("commit max = %d, want 8000", s.CommitMaxNs)
	}
	if s.CommitP50Ns <= 0 {
		t.Errorf("commit p50 = %d, want > 0", s.CommitP50Ns)
	}
}

func TestTracerJSONShapes(t *testing.T) {
	tr := NewTracer()
	tr.SetTrackName(0, "p0 nvi")
	tr.SetTrackName(1, "p1 srv")
	tr.SpanArgs(0, "dc", "commit", 100*time.Microsecond, 10*time.Microsecond, "label", "before-visible", "bytes", 4160)
	tr.Span(0, "net", "send", 120*time.Microsecond, 2*time.Microsecond)
	tr.FlowStart(0, "net", "msg", 7, 120*time.Microsecond)
	tr.Span(1, "net", "recv", 220*time.Microsecond, 2*time.Microsecond)
	tr.FlowEnd(1, "net", "msg", 7, 220*time.Microsecond)
	tr.Begin(1, "dc", "replay", 230*time.Microsecond)
	tr.Instant(1, "fault", "crash", 240*time.Microsecond)
	tr.End(1, 250*time.Microsecond)
	if id := tr.NewFlowID(); id <= FlowIDBase {
		t.Errorf("flow id %d not offset above FlowIDBase", id)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tracks, spans, fs, fe, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if tracks != 2 || spans != 3 || fs != 1 || fe != 1 {
		t.Errorf("shapes tracks=%d spans=%d flowStarts=%d flowEnds=%d, want 2/3/1/1", tracks, spans, fs, fe)
	}
	s := buf.String()
	for _, want := range []string{`"bp":"e"`, `"name":"p0 nvi"`, `"args":{"label":"before-visible","bytes":4160}`, `"ts":120.000`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}

	var buf2 bytes.Buffer
	if err := tr.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-serializing the same tracer must be byte-identical")
	}
}
