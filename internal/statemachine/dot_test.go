package statemachine

import (
	"slices"
	"strings"
	"testing"

	"failtrans/internal/event"
)

// TestWriteDotGolden renders a machine that exercises every styling branch
// — crash-state fill, commit-unsafe fill, start-state pen width, dangerous
// red edges, dashed fixed-ND, dotted transient-ND, and the auto-generated
// label for unlabeled edges — and compares the output byte-for-byte.
// WriteDot output feeds external tooling (dot), so its exact shape is a
// contract; this golden also pins the determinism detlint demands of it.
func TestWriteDotGolden(t *testing.T) {
	m := New(5)
	m.AddEdge(Edge{From: 0, To: 1, Label: "step"})
	m.AddEdge(Edge{From: 1, To: 2, ND: event.FixedND, Label: "ok"})
	m.AddEdge(Edge{From: 1, To: 4, ND: event.FixedND, Label: "fault"})
	m.AddEdge(Edge{From: 2, To: 3, ND: event.TransientND})
	m.MarkCrash(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.DangerousPaths()

	// Sanity of the coloring the rendering depends on: the crash event and
	// its fixed-ND sibling's ancestor are dangerous, states 0 and 1 are
	// commit-unsafe, states 2 and 3 are safe.
	if got := c.Colored; !slices.Equal(got, []bool{true, false, true, false}) {
		t.Fatalf("Colored = %v, want edges 0 and 2", got)
	}

	var sb strings.Builder
	if err := c.WriteDot(&sb, "demo"); err != nil {
		t.Fatal(err)
	}
	const want = `digraph "demo" {
  rankdir=LR;
  node [shape=circle, fontsize=10];
  s0 [label="0", style=filled, fillcolor=mistyrose, penwidth=2];
  s1 [label="1", style=filled, fillcolor=mistyrose];
  s2 [label="2"];
  s3 [label="3"];
  s4 [label="4", style=filled, fillcolor=black, fontcolor=white];
  s0 -> s1 [label="step", color=red, fontcolor=red];
  s1 -> s2 [label="ok", style=dashed];
  s1 -> s4 [label="fault", style=dashed, color=red, fontcolor=red];
  s2 -> s3 [label="e3", style=dotted];
}
`
	if got := sb.String(); got != want {
		t.Errorf("WriteDot output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A second render must be byte-identical: the writer may not depend on
	// map iteration order or any other per-run state.
	var sb2 strings.Builder
	if err := c.WriteDot(&sb2, "demo"); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != sb.String() {
		t.Error("WriteDot is not deterministic across calls")
	}
}
