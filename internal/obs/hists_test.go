package obs

import (
	"bytes"
	"os"
	"testing"

	"failtrans/internal/event"
)

// countersOnly is a registry as a run without a recovery layer leaves it:
// every counter, gauge and map entry set, no histogram ever observed. With
// segments it also fills every process's segment block, as a recovery layer
// that builds segments without observing a histogram would.
func countersOnly(segments bool) *Metrics {
	m := NewMetrics(3)
	for i := range m.Procs {
		p := &m.Procs[i]
		v := int64(i + 1)
		for k := range p.Events {
			p.Events[k] = 10*v + int64(k)
		}
		p.EffectivelyND = 3 * v
		p.Logged = 4 * v
		p.Commits = 5 * v
		p.CommitBytes = 4096 * v
		p.CommitPages = 2 * v
		p.CommitsVetoed = v
		p.LogForces = 6 * v
		p.Rollbacks = 7 * v
		p.RolledBackEvents = 70 * v
		p.ReplayedEvents = 8 * v
		p.Crashes = 9 * v
		p.Syscalls = 11 * v
		p.InboxPeak = 12 * v
		if segments {
			*m.VistaBlock(i) = VistaMetrics{Commits: v, Rollbacks: 2 * v, PagesDirtied: 3 * v, UndoBytes: 4 * v,
				HashHits: 5 * v, PagesPrivatized: 6 * v, BytesCOW: 7 * v}
		}
	}
	m.Steps = 1000
	m.TwoPhaseRounds = 17
	m.SchedUpdates = 900
	m.SchedRebuilds = 2
	m.FaultWindows = 3
	m.FaultCorruptions = 1
	m.KernelPanics = 1
	m.Syscall(0, "open")
	m.Syscall(2, "read")
	m.Syscall(2, "read")
	return m
}

// TestSnapshotWithoutHistsGolden: a registry nothing was observed into
// renders the same snapshot it did when every process carried its
// histograms inline (the golden file predates the out-of-line block), and
// reading it allocates no histogram block. A registry no segment touched
// renders the zero segment lines it did when every process's segment block
// was allocated up front (snapshot_no_segments.golden predates the lazy
// blocks), and reading it allocates none.
func TestSnapshotWithoutHistsGolden(t *testing.T) {
	for _, c := range []struct {
		segments bool
		golden   string
	}{
		{true, "testdata/snapshot_counters.golden"},
		{false, "testdata/snapshot_no_segments.golden"},
	} {
		m := countersOnly(c.segments)
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("snapshot differs from %s:\n%s", c.golden, got)
		}
		if s := m.Summarize(); s.CommitP50Ns != 0 || s.CommitMaxNs != 0 || s.Commits != 30 {
			t.Errorf("summary of a histogram-free registry: %+v", s)
		}
		if m.hists != nil {
			t.Errorf("reading the registry allocated %d histogram blocks", len(m.hists))
		}
		if !c.segments && m.Vista != nil {
			t.Errorf("reading a registry no segment touched allocated %d segment blocks", len(m.Vista))
		}
	}
}

// record applies one run's observations to the first procs processes of m
// (counters add, the inbox gauge takes the max); with hists false it leaves
// the histogram blocks alone, as a run without a recovery layer does.
func record(m *Metrics, procs int, seed int64, hists bool) {
	for i := 0; i < procs; i++ {
		p := &m.Procs[i]
		v := seed + int64(i)
		p.Events[event.Send] += v
		p.Commits += v
		p.Rollbacks += 2 * v
		p.InboxPeak = max(p.InboxPeak, 3*v)
		m.VistaBlock(i).PagesDirtied += v
		if hists {
			h := m.Hists(i)
			h.CommitLatency.Observe(1000 * v)
			h.CommitSize.Observe(64 * v)
			h.LogForceLatency.Observe(10 * v)
			h.RollbackDepth.Observe(v)
		}
	}
	m.Steps += seed
	m.Syscall(0, "read")
}

// TestMetricsMergeHistsEitherSide: merging a registry with histogram blocks
// and one without, in either direction and with the one without being the
// larger, equals observing both runs into one registry.
func TestMetricsMergeHistsEitherSide(t *testing.T) {
	ref := NewMetrics(3)
	record(ref, 2, 1, true)
	record(ref, 3, 5, false)
	want, wantSum := ref.Snapshot(), ref.Summarize()

	with := func() *Metrics { m := NewMetrics(2); record(m, 2, 1, true); return m }
	without := func() *Metrics { m := NewMetrics(3); record(m, 3, 5, false); return m }
	for name, pair := range map[string][2]*Metrics{
		"with<-without": {with(), without()},
		"without<-with": {without(), with()},
	} {
		dst := pair[0]
		dst.Merge(pair[1])
		if got := dst.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: merged snapshot differs from one registry observing both:\n%s\n---\n%s", name, got, want)
		}
		if got := dst.Summarize(); got != wantSum {
			t.Errorf("%s: merged summary %+v, want %+v", name, got, wantSum)
		}
	}
	// A registry that never observed a histogram keeps none after merging
	// with another such registry.
	a, b := without(), without()
	a.Merge(b)
	if a.hists != nil {
		t.Error("merging two histogram-free registries allocated histogram blocks")
	}
}
