package bench

import (
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// buildRecoverable builds one app's world under a protocol ("NONE" attaches
// no recovery layer) and commit medium, as ftsim configures a run.
func buildRecoverable(t *testing.T, app, polName string, medium stablestore.Medium) *sim.World {
	t.Helper()
	w, err := BuildWorld(app, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	w.RecordTrace = false
	if polName != "NONE" {
		pol, err := protocol.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		if err := dc.New(w, pol, medium).Attach(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestForkMidRun is the snapshot/fork engine's self-check on whole measured
// runs: a run sealed at its halfway step must yield forks — the second taken
// after the first has run to completion — that both finish byte-identical to
// a never-forked twin's uninterrupted run.
func TestForkMidRun(t *testing.T) {
	for _, polName := range []string{"NONE", "CPVS", "CBNDVS-LOG"} {
		for _, medium := range []stablestore.Medium{stablestore.Rio, stablestore.Disk} {
			t.Run(polName+"/"+medium.Name, func(t *testing.T) {
				ref := buildRecoverable(t, "nvi", polName, medium)
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}
				w := buildRecoverable(t, "nvi", polName, medium)
				if err := w.Init(); err != nil {
					t.Fatal(err)
				}
				for w.StepCount() < ref.StepCount()/2 {
					if more, err := w.Step(); err != nil || !more {
						t.Fatalf("stepping to the fork point: more=%v err=%v", more, err)
					}
				}
				for _, name := range []string{"first fork", "second fork"} {
					got, err := w.Fork()
					if err != nil {
						t.Fatal(err)
					}
					if err := got.Run(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.GlobalOutputs(), ref.GlobalOutputs()) {
						t.Errorf("%s diverged from the reference: %d vs %d outputs",
							name, len(got.GlobalOutputs()), len(ref.GlobalOutputs()))
					}
					if got.Clock != ref.Clock || got.StepCount() != ref.StepCount() {
						t.Errorf("%s finished at clock %v step %d, reference %v step %d",
							name, got.Clock, got.StepCount(), ref.Clock, ref.StepCount())
					}
				}
			})
		}
	}
}

// TestForkRejectsUnforkableApps: the Figure 8 apps whose programs do not
// implement sim.Forker must refuse to fork with an error that says so, and
// the refusal must leave the world unsealed: it still steps.
func TestForkRejectsUnforkableApps(t *testing.T) {
	for _, app := range []string{"magic", "xpilot", "treadmarks"} {
		w := buildRecoverable(t, app, "CPVS", stablestore.Rio)
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Fork(); err == nil || !strings.Contains(err.Error(), "is not forkable") {
			t.Errorf("%s: Fork error = %v, want a \"not forkable\" error", app, err)
		}
		if more, err := w.Step(); w.Frozen() || err != nil || !more {
			t.Errorf("%s: after the refused Fork: frozen=%v, Step more=%v err=%v", app, w.Frozen(), more, err)
		}
	}
}
