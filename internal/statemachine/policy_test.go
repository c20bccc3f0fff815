package statemachine

import (
	"testing"

	"failtrans/internal/event"
)

// fixedNDMachine is the golden machine for the FixedND doom rule: state
// "mid" has one colored fixed-ND out-edge (into the crash state) and one
// uncolored deterministic out-edge (into completion), so it is doomed by
// the "some colored fixed-ND event" rule while the "all events colored"
// rule does not fire. State "tmid" is the transient-ND contrast: the same
// shape with a transient-ND crash alternative is NOT doomed.
func fixedNDMachine() (*Machine, map[string]StateID) {
	names := map[string]StateID{"start": 0, "mid": 1, "tmid": 2, "done": 3, "crash": 4}
	m := New(len(names))
	m.AddEdge(Edge{From: 0, To: 1, ND: event.Deterministic, Label: "to-mid"})
	m.AddEdge(Edge{From: 0, To: 2, ND: event.Deterministic, Label: "to-tmid"})
	m.AddEdge(Edge{From: 1, To: 4, ND: event.FixedND, Label: "fixed-fail"})
	m.AddEdge(Edge{From: 1, To: 3, ND: event.Deterministic, Label: "ok"})
	m.AddEdge(Edge{From: 2, To: 4, ND: event.TransientND, Label: "transient-fail"})
	m.AddEdge(Edge{From: 2, To: 3, ND: event.Deterministic, Label: "ok"})
	m.MarkCrash(4)
	return m, names
}

func TestFixedNDDoomGolden(t *testing.T) {
	m, names := fixedNDMachine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	col := m.DangerousPaths()
	want := map[string]bool{
		"start": false,
		"mid":   true,  // colored fixed-ND out-edge dooms it despite the safe exit
		"tmid":  false, // transient-ND alternative can be escaped; not doomed
		"done":  false,
		"crash": true, // crash states are always commit-unsafe
	}
	for name, id := range names {
		if got := col.CommitUnsafeAt(id); got != want[name] {
			t.Errorf("CommitUnsafeAt(%s) = %v, want %v", name, got, want[name])
		}
	}

	p := NewVetoPolicyFromColoring("golden/fixednd", 7, names, col)
	for name, id := range names {
		if p.CommitUnsafe(name) != col.CommitUnsafeAt(id) {
			t.Errorf("policy verdict for %s diverges from coloring", name)
		}
	}
	if p.CommitUnsafe("never-mined") {
		t.Error("unknown state vetoed; evidence-free states must be safe")
	}
	var nilPol *VetoPolicy
	if nilPol.CommitUnsafe("mid") {
		t.Error("nil policy vetoed a commit")
	}
}

// chainMachine builds a deep commit chain with a branchy tail, the shape
// mined campaigns produce, sized so an O(E) scan per query is visibly
// distinct from an O(out-degree) lookup.
func chainMachine(n int) *Machine {
	m := New(n + 2)
	crash := StateID(n + 1)
	for i := 0; i < n; i++ {
		m.AddEdge(Edge{From: StateID(i), To: StateID(i + 1), ND: event.Deterministic, Label: "commit"})
		if i%3 == 0 {
			m.AddEdge(Edge{From: StateID(i), To: crash, ND: event.TransientND, Label: "fault"})
		}
	}
	m.MarkCrash(crash)
	return m
}

// TestCommitUnsafeAtNoAlloc pins the S1 fix: a per-commit query must use
// the adjacency cached at DangerousPaths time, not rebuild the O(E) index
// (which would heap-allocate every call).
func TestCommitUnsafeAtNoAlloc(t *testing.T) {
	col := chainMachine(512).DangerousPaths()
	if allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < 512; s++ {
			col.CommitUnsafeAt(StateID(s))
		}
	}); allocs != 0 {
		t.Fatalf("CommitUnsafeAt allocates %.1f times per sweep, want 0 (adjacency not cached?)", allocs)
	}
}

func BenchmarkCommitUnsafeAt(b *testing.B) {
	col := chainMachine(4096).DangerousPaths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.CommitUnsafeAt(StateID(i % 4096))
	}
}
