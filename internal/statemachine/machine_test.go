package statemachine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"failtrans/internal/event"
)

// chain builds s0 -> s1 -> ... -> s(n) with deterministic edges; if crash is
// true the final state is a crash state.
func chain(n int, crash bool) *Machine {
	m := New(n + 1)
	for i := 0; i < n; i++ {
		m.AddEdge(Edge{From: StateID(i), To: StateID(i + 1)})
	}
	if crash {
		m.MarkCrash(StateID(n))
	}
	return m
}

// TestPaperFigure6A: a string of deterministic events ending in a crash
// event is entirely dangerous; committing anywhere on it violates
// Lose-work.
func TestPaperFigure6A(t *testing.T) {
	m := chain(3, true)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.DangerousPaths()
	for i := range m.Edges {
		if !c.Dangerous(EventID(i)) {
			t.Errorf("edge %d should be colored", i)
		}
	}
	for s := 0; s < 3; s++ {
		if !c.CommitUnsafeAt(StateID(s)) {
			t.Errorf("commit at state %d should violate Lose-work", s)
		}
	}
}

// TestCompletionChainSafe: the same chain ending in successful completion
// has no dangerous paths.
func TestCompletionChainSafe(t *testing.T) {
	m := chain(3, false)
	c := m.DangerousPaths()
	if slices.Contains(c.Colored, true) {
		t.Errorf("completion chain colored %v, want none", c.Colored)
	}
	if len(c.SafeCommitStates()) != 4 {
		t.Errorf("all 4 states should be safe commit points, got %v", c.SafeCommitStates())
	}
}

// figure6Machine builds the B/C cases of the paper's Figure 6: state 0 has a
// non-deterministic event with two possible results, one of which leads
// deterministically to a crash, the other to completion.
func figure6Machine(nd event.NDClass) *Machine {
	m := New(5)
	m.AddEdge(Edge{From: 0, To: 1, ND: nd, Label: "bad result"})
	m.AddEdge(Edge{From: 0, To: 2, ND: nd, Label: "good result"})
	m.AddEdge(Edge{From: 1, To: 3, Label: "doomed det"})
	m.AddEdge(Edge{From: 2, To: 4, Label: "completes"})
	m.MarkCrash(3)
	return m
}

// TestPaperFigure6B: committing before a transient ND event is safe when at
// least one possible result avoids the crash.
func TestPaperFigure6B(t *testing.T) {
	m := figure6Machine(event.TransientND)
	c := m.DangerousPaths()
	if c.CommitUnsafeAt(0) {
		t.Error("commit before transient ND with an escape should be safe")
	}
	// The doomed branch itself is colored.
	if !c.Dangerous(0) || !c.Dangerous(2) {
		t.Error("bad-result branch should be colored")
	}
	if c.Dangerous(1) || c.Dangerous(3) {
		t.Error("good-result branch must not be colored")
	}
	// Committing once on the doomed branch is fatal.
	if !c.CommitUnsafeAt(1) {
		t.Error("commit at state 1 (after bad result) should be unsafe")
	}
}

// TestPaperFigure6C: committing before a fixed ND event is unsafe if any of
// its possible results leads to a crash — recovery cannot rely on fixed
// events changing.
func TestPaperFigure6C(t *testing.T) {
	m := figure6Machine(event.FixedND)
	c := m.DangerousPaths()
	if !c.CommitUnsafeAt(0) {
		t.Error("commit before fixed ND leading possibly to crash must be unsafe")
	}
}

// TestPaperFigure5: the buffer-overrun timeline. A transient ND event e is
// followed by deterministic buffer init / pointer overwrite / pointer use
// (crash). A commit any time after e dooms recovery; a commit before e is
// safe.
func TestPaperFigure5(t *testing.T) {
	m := New(7)
	m.AddEdge(Edge{From: 0, To: 1, ND: event.TransientND, Label: "e (bad)"})
	m.AddEdge(Edge{From: 0, To: 6, ND: event.TransientND, Label: "e (good)"})
	m.AddEdge(Edge{From: 1, To: 2, Label: "begin buffer init"})
	m.AddEdge(Edge{From: 2, To: 3, Label: "overwrite pointer"})
	m.AddEdge(Edge{From: 3, To: 4, Label: "use pointer"})
	m.MarkCrash(4)
	c := m.DangerousPaths()
	if c.CommitUnsafeAt(0) {
		t.Error("commit before e should be safe")
	}
	for s := StateID(1); s <= 3; s++ {
		if !c.CommitUnsafeAt(s) {
			t.Errorf("commit at state %d (after e) should doom recovery", s)
		}
	}
}

// TestPaperFigure7 builds a machine in the spirit of Figure 7: a mix of
// fixed-ND and transient branches around crash events, checking that fixed
// non-determinism propagates danger while transient non-determinism stops
// it.
func TestPaperFigure7(t *testing.T) {
	m := New(9)
	// 0 --det--> 1; at 1 a fixed ND splits to 2 (crash chain) or 3 (ok).
	e01 := m.AddEdge(Edge{From: 0, To: 1})
	e12 := m.AddEdge(Edge{From: 1, To: 2, ND: event.FixedND})
	e13 := m.AddEdge(Edge{From: 1, To: 3, ND: event.FixedND})
	e24 := m.AddEdge(Edge{From: 2, To: 4}) // 4 is crash
	// At 3 a transient ND splits to 5 (crash) or 6 (continues to 7).
	e35 := m.AddEdge(Edge{From: 3, To: 5, ND: event.TransientND})
	e36 := m.AddEdge(Edge{From: 3, To: 6, ND: event.TransientND})
	e67 := m.AddEdge(Edge{From: 6, To: 7})
	m.MarkCrash(4)
	m.MarkCrash(5)
	c := m.DangerousPaths()
	// The crash events are colored.
	if !c.Dangerous(e24) || !c.Dangerous(e35) {
		t.Error("crash events must be colored")
	}
	// The fixed branch into the crash chain is colored, and danger leaks
	// through the fixed ND back to edge 0->1.
	if !c.Dangerous(e12) {
		t.Error("fixed-ND edge into doomed state must be colored")
	}
	if !c.Dangerous(e01) {
		t.Error("danger must propagate backwards through a colored fixed-ND successor")
	}
	// The transient escape is not colored, and neither is what follows.
	if c.Dangerous(e36) || c.Dangerous(e67) {
		t.Error("transient escape branch must stay uncolored")
	}
	// The good fixed result is not colored either (its continuation is
	// safe) — but committing at state 1 is unsafe because one colored
	// fixed-ND edge leaves it.
	if c.Dangerous(e13) {
		t.Error("fixed edge to safe continuation must stay uncolored")
	}
	if !c.CommitUnsafeAt(1) {
		t.Error("state 1 has a colored fixed-ND out-edge; commit must be unsafe")
	}
	// State 3's danger is behind a transient choice with an escape.
	if c.CommitUnsafeAt(3) {
		t.Error("state 3 has a transient escape; commit should be safe")
	}
}

func TestValidate(t *testing.T) {
	m := New(2)
	m.AddEdge(Edge{From: 0, To: 5})
	if err := m.Validate(); err == nil {
		t.Error("out-of-range to-state must fail validation")
	}
	m2 := New(2)
	m2.AddEdge(Edge{From: 5, To: 0})
	if err := m2.Validate(); err == nil {
		t.Error("out-of-range from-state must fail validation")
	}
	m3 := New(2)
	m3.MarkCrash(0)
	m3.AddEdge(Edge{From: 0, To: 1})
	if err := m3.Validate(); err == nil {
		t.Error("edge leaving a crash state must fail validation")
	}
	m4 := New(1)
	m4.Start = 3
	if err := m4.Validate(); err == nil {
		t.Error("out-of-range start state must fail validation")
	}
	m5 := New(3)
	m5.MarkCrash(7)
	if err := m5.Validate(); err == nil {
		t.Error("out-of-range crash state must fail validation")
	}
}

// randomDAG builds a random acyclic machine: edges only go from lower to
// higher state numbers; the last k states may be crash states.
func randomDAG(r *rand.Rand) *Machine {
	n := 4 + r.Intn(8)
	m := New(n)
	for s := 0; s < n-1; s++ {
		edges := 1 + r.Intn(2)
		for j := 0; j < edges; j++ {
			to := s + 1 + r.Intn(n-s-1)
			nd := event.NDClass(r.Intn(3))
			m.Edges = append(m.Edges, Edge{From: StateID(s), To: StateID(to), ND: nd})
		}
	}
	for s := n - 1; s >= n-2 && s >= 0; s-- {
		if r.Intn(2) == 0 {
			m.MarkCrash(StateID(s))
		}
	}
	// Crash states must not have outgoing edges; drop any offenders.
	var keep []Edge
	for _, e := range m.Edges {
		if !m.CrashStates[e.From] {
			keep = append(keep, e)
		}
	}
	m.Edges = keep
	return m
}

// semanticDoomed is a recursive oracle for acyclic machines: a state is
// doomed iff (some fixed-ND out-edge is colored) or (all out-edges are
// colored), where an edge is colored iff it is a crash event or its target
// is doomed.
func semanticDoomed(m *Machine, s StateID, memo map[StateID]int) bool {
	if v, ok := memo[s]; ok {
		return v == 1
	}
	out := m.outgoing()
	edges := out[s]
	if len(edges) == 0 {
		memo[s] = 0
		return false
	}
	colored := func(id EventID) bool {
		return m.IsCrashEvent(id) || semanticDoomed(m, m.Edges[id].To, memo)
	}
	all := true
	doomed := false
	for _, id := range edges {
		if colored(id) {
			if m.Edges[id].ND == event.FixedND {
				doomed = true
			}
		} else {
			all = false
		}
	}
	if all {
		doomed = true
	}
	if doomed {
		memo[s] = 1
	} else {
		memo[s] = 0
	}
	return doomed
}

// TestColoringMatchesSemanticOracle compares the fixpoint coloring against
// the recursive oracle on random DAGs.
func TestColoringMatchesSemanticOracle(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomDAG(r)
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid random machine: %v", err)
		}
		c := m.DangerousPaths()
		memo := make(map[StateID]int)
		for s := 0; s < m.NumStates; s++ {
			if m.CrashStates[StateID(s)] {
				continue
			}
			want := semanticDoomed(m, StateID(s), memo)
			got := c.CommitUnsafeAt(StateID(s))
			if got != want {
				t.Logf("seed %d state %d: coloring=%v oracle=%v", seed, s, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestColoringMonotone: adding a crash edge to a machine never removes
// colored events (danger only grows as more crashes exist).
func TestColoringMonotone(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomDAG(r)
		before := m.DangerousPaths()
		// Add a fresh crash state reachable from a random non-crash state.
		var from StateID = -1
		for tries := 0; tries < 20; tries++ {
			s := StateID(r.Intn(m.NumStates))
			if !m.CrashStates[s] {
				from = s
				break
			}
		}
		if from < 0 {
			return true
		}
		crash := StateID(m.NumStates)
		m.NumStates++
		m.MarkCrash(crash)
		m.AddEdge(Edge{From: from, To: crash, ND: event.NDClass(r.Intn(3))})
		after := m.DangerousPaths()
		for i := range before.Colored {
			if before.Colored[i] && !after.Colored[i] {
				t.Logf("seed %d: edge %d lost its color after adding a crash", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestColoringIdempotent: recomputing the coloring yields identical output.
func TestColoringIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		m := randomDAG(r)
		a := m.DangerousPaths()
		b := m.DangerousPaths()
		for j := range a.Colored {
			if a.Colored[j] != b.Colored[j] {
				t.Fatalf("coloring not deterministic at edge %d", j)
			}
		}
	}
}

// TestCyclicMachine: danger computation terminates and is sane on cycles. A
// loop with a deterministic exit to a crash is dangerous everywhere.
func TestCyclicMachine(t *testing.T) {
	m := New(3)
	m.AddEdge(Edge{From: 0, To: 1})
	m.AddEdge(Edge{From: 1, To: 0})
	m.AddEdge(Edge{From: 1, To: 2})
	m.MarkCrash(2)
	c := m.DangerousPaths()
	// State 1 has an uncolored loop edge back to 0... which itself can
	// only reach 1. The loop offers no escape: but the coloring is the
	// operational fixpoint, which colors only what the rules force. The
	// crash edge must be colored; the loop edges' color depends on the
	// fixpoint reached.
	if !c.Dangerous(2) {
		t.Error("crash edge must be colored")
	}
}

func TestWriteDot(t *testing.T) {
	m := figure6Machine(event.FixedND)
	c := m.DangerousPaths()
	var buf strings.Builder
	if err := c.WriteDot(&buf, "fig6c"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph \"fig6c\"",
		"fillcolor=black", // the crash state
		"color=red",       // a dangerous event
		"style=dashed",    // fixed-ND edges
		"s0 -> s1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}
