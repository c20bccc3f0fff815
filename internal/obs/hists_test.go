package obs

import (
	"bytes"
	"os"
	"testing"
)

// countersOnly is a registry as a run without a recovery layer leaves it:
// every counter, gauge and map entry set, each process's event block
// attached, no histogram ever observed. With segments it also fills every
// process's segment block, as a recovery layer that builds segments without
// observing a histogram would.
func countersOnly(segments bool) *Metrics {
	m := NewMetrics(3)
	for i := range m.Procs {
		p, e := &m.Procs[i], &EventCounts{}
		m.Events[i] = e
		v := int64(i + 1)
		for k := range e.Events {
			e.Events[k] = 10*v + int64(k)
		}
		e.EffectivelyND = 3 * v
		e.Logged = 4 * v
		e.InboxPeak = 12 * v
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
		if got := snapshot(t, m); !bytes.Equal(got, want) {
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
