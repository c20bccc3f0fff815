package bench

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/dc"
	"failtrans/internal/kernel"
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
		if more, err := w.Step(); err != nil || !more {
			t.Errorf("%s: after the refused Fork: Step more=%v err=%v", app, more, err)
		}
	}
}

// TestForkOwnsWhatItWrites: as soon as Fork returns, a fork owns the state
// nearly every fork writes — the kernel's nodes, nvi's line buffer and line
// checksums, postgres's index header (its nodes are copy-on-write) and dc's
// message-dependency map are pointer-distinct from its template's — and
// what the fork writes there never reaches a second fork of the same
// template, which still holds the state of a never-forked twin stepped as
// far.
func TestForkOwnsWhatItWrites(t *testing.T) {
	withDC := func(t *testing.T, w *sim.World, pol protocol.Policy) *sim.World {
		w.RecordTrace = false
		if err := dc.New(w, pol, stablestore.Rio).Attach(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *sim.World
		steps int
		// owned lists the fork's and the template's pointer to each piece
		// of program or recovery state the fork must own; the kernel's
		// nodes are checked for every world that has one.
		owned func(t *testing.T, f, tm *sim.World) map[string][2]uintptr
		// write writes the fork's copy of that state.
		write func(t *testing.T, f *sim.World)
	}{
		{
			name:  "nvi",
			build: func(t *testing.T) *sim.World { return buildRecoverable(t, "nvi", "CPVS", stablestore.Rio) },
			steps: 200,
			owned: func(t *testing.T, f, tm *sim.World) map[string][2]uintptr {
				fe, te := f.Procs[0].Prog.(*nvi.Editor), tm.Procs[0].Prog.(*nvi.Editor)
				out := map[string][2]uintptr{
					"Lines":    {sliceAddr(fe.Lines), sliceAddr(te.Lines)},
					"LineSums": {sliceAddr(fe.LineSums), sliceAddr(te.LineSums)},
				}
				for i, l := range te.Lines {
					if len(l) > 0 {
						out[fmt.Sprintf("line %d", i)] = [2]uintptr{sliceAddr(fe.Lines[i]), sliceAddr(l)}
					}
				}
				return out
			},
			write: func(t *testing.T, f *sim.World) {
				e := f.Procs[0].Prog.(*nvi.Editor)
				for i, l := range e.Lines {
					if len(l) > 0 {
						l[0] ^= 0xff
					}
					e.LineSums[i] ^= 1
				}
			},
		},
		{
			name:  "postgres",
			build: func(t *testing.T) *sim.World { return withDC(t, postgresWorld(200), protocol.CPVS) },
			steps: 300,
			owned: func(t *testing.T, f, tm *sim.World) map[string][2]uintptr {
				return map[string][2]uintptr{"Index header": {
					reflect.ValueOf(f.Procs[0].Prog.(*postgres.DB).Index).Pointer(),
					reflect.ValueOf(tm.Procs[0].Prog.(*postgres.DB).Index).Pointer(),
				}}
			},
			write: func(t *testing.T, f *sim.World) {
				f.Procs[0].Prog.(*postgres.DB).Index.Put(1<<40, postgres.RID{Page: 1, Slot: 1})
			},
		},
		{
			// Only a fleet sends messages, and under CPV-2PC a reply
			// carries the server's uncommitted receive as a dependency.
			name: "fleet",
			build: func(t *testing.T) *sim.World {
				return withDC(t, sim.NewWorld(23, fleet.Fleet(fleet.Sized(8))...), protocol.CPV2PC)
			},
			steps: 40,
			owned: func(t *testing.T, f, tm *sim.World) map[string][2]uintptr {
				if msgDeps(tm).Len() == 0 {
					t.Fatal("the template holds no message dependency")
				}
				return map[string][2]uintptr{"msgDeps": {msgDeps(f).Pointer(), msgDeps(tm).Pointer()}}
			},
			write: func(t *testing.T, f *sim.World) {
				for n := msgDeps(f).Len(); msgDeps(f).Len() == n; {
					if more, err := f.Step(); err != nil || !more {
						t.Fatalf("the fork sent no message with a dependency: more=%v err=%v", more, err)
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stepped := func() *sim.World {
				w := tc.build(t)
				for w.StepCount() < tc.steps {
					if more, err := w.Step(); err != nil || !more {
						t.Fatalf("stepping to the fork point: more=%v err=%v", more, err)
					}
				}
				return w
			}
			tmpl, twin := stepped(), stepped()
			f, err := tmpl.Fork()
			if err != nil {
				t.Fatal(err)
			}
			owned := tc.owned(t, f, tmpl)
			if tmpl.OS != nil {
				fn, tn := reflect.ValueOf(f.OS).Elem().FieldByName("nodes"), reflect.ValueOf(tmpl.OS).Elem().FieldByName("nodes")
				for pid := 0; pid < tn.Len(); pid++ {
					var fp uintptr
					if pid < fn.Len() {
						fp = fn.Index(pid).Addr().Pointer()
					}
					owned[fmt.Sprintf("kernel node %d", pid)] = [2]uintptr{fp, tn.Index(pid).Addr().Pointer()}
				}
			}
			var shared []string
			for what, p := range owned {
				if p[0] == 0 || p[0] == p[1] {
					shared = append(shared, what)
				}
			}
			if len(shared) > 0 {
				slices.Sort(shared)
				t.Errorf("when Fork returns, the fork does not own its %s", strings.Join(shared, ", "))
			}

			tc.write(t, f)
			if k, ok := f.OS.(*kernel.Kernel); ok {
				for pid := range f.Procs {
					k.ExpandResources(pid)
				}
			}
			g, err := tmpl.Fork()
			if err != nil {
				t.Fatal(err)
			}
			twin.Freeze()
			progs, err := twin.ProgramStates()
			if err != nil {
				t.Fatal(err)
			}
			if off, ok := g.SameState(twin, progs); !ok || !off.Zero() {
				t.Errorf("a second fork left the never-forked twin's state (offsets %+v, match %v)", off, ok)
			}
		})
	}
}

// sliceAddr is the address of s's backing array, 0 for an empty slice.
func sliceAddr[E any](s []E) uintptr {
	if len(s) == 0 {
		return 0
	}
	return reflect.ValueOf(s).Pointer()
}

// msgDeps is the message-dependency map of w's Discount Checking instance.
func msgDeps(w *sim.World) reflect.Value {
	return reflect.ValueOf(w.Recovery).Elem().FieldByName("msgDeps")
}
