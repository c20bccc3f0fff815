package magic

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"failtrans/internal/sim"
)

// TestRepliesMatchFormat: the replies are appended into the Layout's own
// buffer, byte-identical to the fmt formatting they replaced.
func TestRepliesMatchFormat(t *testing.T) {
	for _, n := range []int{0, 1, -3, 175, math.MaxInt64, math.MinInt64} {
		for _, name := range []string{"m1", "poly", ""} {
			for _, c := range []struct{ head, tail, format string }{
				{"box ", " tiles", "box %s: %d tiles"},
				{"drc ", " violations", "drc %s: %d violations"},
				{"flatdrc ", " violations", "flatdrc %s: %d violations"},
				{"flatarea ", "", "flatarea %s: %d"},
			} {
				if got, want := string(appendNamed(nil, c.head, name, n, c.tail)), fmt.Sprintf(c.format, name, n); got != want {
					t.Errorf("reply %q, want %q", got, want)
				}
			}
		}
	}
	for _, now := range []time.Duration{0, 999 * time.Microsecond, time.Millisecond, 61*time.Second + 7*time.Millisecond, math.MaxInt64} {
		if got, want := string(appendStamp([]byte("drc m1: 2 violations"), now)), "drc m1: 2 violations"+fmt.Sprintf(" @%dms", now/time.Millisecond); got != want {
			t.Errorf("stamp %q, want %q", got, want)
		}
	}
	// End to end, through the render: the area reply and the three error
	// replies, as fmt and string concatenation built them.
	w, _ := run(t, "paint m1 0 0 10 10", "area m1", "frob m1", "paint nope 0 0 1 1", "paint  m1\t9", "drc", "quit")
	want := []string{
		fmt.Sprintf("area %s: %d in %d tiles", "m1", 100, 1),
		"?cmd " + "frob", "?layer " + "nope", "?syntax " + "paint  m1\t9", "?layer",
	}
	if got := w.Outputs[0]; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("outputs %q, want %q", got, want)
	}
}

// TestCorruptedOpcodeLeavesScriptIntact: a stack bit flip corrupts the
// parsed opcode in a copy; the command is a view of the input script,
// which must not change.
func TestCorruptedOpcodeLeavesScriptIntact(t *testing.T) {
	l := New("m1")
	l.ThinkTime = 0
	w := sim.NewWorld(11, l)
	cmds := []string{"paint m1 0 0 10 10", "box m1 0 0 4 4", "area m1", "quit"}
	script := Script(cmds)
	w.Procs[0].Ctx().Inputs = script
	w.Faults = &faultAt{kind: sim.StackBitFlip, site: "magic.cmd", n: 2}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range cmds {
		if string(script[i]) != c {
			t.Errorf("script line %d reads %q after the run, want %q", i, script[i], c)
		}
	}
	if out := w.Outputs[0]; len(out) == 0 || !strings.HasPrefix(out[0], "?cmd ") {
		t.Errorf("outputs %q: the flipped opcode did not reach the reply", out)
	}
}
