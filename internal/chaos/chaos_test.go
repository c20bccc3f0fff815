// Package chaos is the integration gauntlet: every workload application
// runs under every measured protocol while randomized stop failures strike
// arbitrary processes at arbitrary points. Each run must complete, and its
// observable outcome must match the failure-free run under the paper's
// consistent-recovery equivalence — failure transparency, verified end to
// end across the whole stack.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/magic"
	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/apps/treadmarks"
	"failtrans/internal/apps/xpilot"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/obs"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// scenario describes one application's chaos configuration.
type scenario struct {
	name  string
	build func() *sim.World
	// outcome extracts the observable result to compare across runs.
	// For single-process interactive apps this is the visible output
	// (compared with duplicates-allowed equivalence); for others it is
	// an app-specific digest that must match exactly.
	outcome func(w *sim.World) []string
	// digestExact requires exact equality instead of the visible
	// equivalence (used when outputs are digests, not event streams).
	digestExact bool
	maxSteps    int
}

func kernelWorld(seed int64, progs ...sim.Program) *sim.World {
	w := sim.NewWorld(seed, progs...)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	return w
}

func scenarios() []scenario {
	return []scenario{
		{
			name: "nvi",
			build: func() *sim.World {
				e := nvi.New("doc.txt", faults.NviInitial())
				e.ThinkTime = 0
				w := kernelWorld(1, e)
				w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(3, 250))
				return w
			},
			outcome: func(w *sim.World) []string {
				e := w.Procs[0].Prog.(*nvi.Editor)
				k := w.OS.(*kernel.Kernel)
				file, _ := k.ReadFile(0, "doc.txt")
				return []string{strings.Join(e.Contents(), "\n"), string(file)}
			},
			digestExact: true,
			maxSteps:    500_000,
		},
		{
			name: "magic",
			build: func() *sim.World {
				l := magic.New("m1", "m2", "poly")
				l.ThinkTime = 0
				w := kernelWorld(2, l)
				var cmds []string
				for i := 0; i < 25; i++ {
					cmds = append(cmds, fmt.Sprintf("paint m1 %d %d 10 8", i*7%200, i*13%150))
					if i%5 == 4 {
						cmds = append(cmds, "area m1", "drc m1")
					}
				}
				cmds = append(cmds, "quit")
				w.Procs[0].Ctx().Inputs = magic.Script(cmds)
				return w
			},
			outcome: func(w *sim.World) []string {
				l := w.Procs[0].Prog.(*magic.Layout)
				return []string{fmt.Sprintf("tiles=%d", l.TotalTiles())}
			},
			digestExact: true,
			maxSteps:    500_000,
		},
		{
			name: "postgres",
			build: func() *sim.World {
				db := postgres.New("t.dat")
				w := kernelWorld(3, db)
				w.Procs[0].Ctx().Inputs = postgres.Script(faults.PostgresSession(5, 150))
				return w
			},
			outcome: func(w *sim.World) []string {
				return w.Outputs[0] // query results: the visible stream
			},
			maxSteps: 500_000,
		},
		{
			name: "xpilot",
			build: func() *sim.World {
				w := kernelWorld(4, xpilot.Fleet(25)...)
				for i := 1; i <= 3; i++ {
					w.Procs[i].Ctx().Inputs = xpilot.KeyScript(strings.Repeat("w ad", 10))
				}
				return w
			},
			outcome: func(w *sim.World) []string {
				srv := w.Procs[0].Prog.(*xpilot.Server)
				out := []string{fmt.Sprintf("tick=%d", srv.Tick)}
				for _, s := range srv.Ships {
					out = append(out, fmt.Sprintf("ship(%d,%d,s%d,d%d)", s.X, s.Y, s.Score, s.Deaths))
				}
				return out
			},
			digestExact: true,
			maxSteps:    2_000_000,
		},
		{
			name: "treadmarks",
			build: func() *sim.World {
				progs, err := treadmarks.Fleet(4, 72, 3)
				if err != nil {
					panic(err)
				}
				return sim.NewWorld(5, progs...)
			},
			outcome: func(w *sim.World) []string {
				var out []string
				for pi := 0; pi < 4; pi++ {
					tm := w.Procs[pi].Prog.(*treadmarks.TM)
					for i, b := range tm.FinalBodies() {
						out = append(out, fmt.Sprintf("%d:%x:%x:%x", tm.Lo+i, b.X, b.Y, b.Z))
					}
				}
				return out
			},
			digestExact: true,
			maxSteps:    5_000_000,
		},
	}
}

// TestChaos is the gauntlet: for each app × protocol of protocol.Space(), run
// several randomized stop schedules and verify the outcome against the
// clean run.
func TestChaos(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Failure-free reference.
			clean := sc.build()
			clean.RecordTrace = false
			clean.MaxSteps = sc.maxSteps
			if err := clean.Run(); err != nil {
				t.Fatal(err)
			}
			if !clean.AllDone() {
				t.Fatal("clean run did not finish")
			}
			want := sc.outcome(clean)

			for _, pol := range protocol.Space() {
				pol := pol
				t.Run(pol.Name, func(t *testing.T) {
					for round := 0; round < rounds; round++ {
						r := rand.New(rand.NewSource(int64(round)*977 + 13))
						w := sc.build()
						w.RecordTrace = false
						w.MaxSteps = sc.maxSteps
						d := dc.New(w, pol, stablestore.Rio)
						if err := d.Attach(); err != nil {
							t.Fatal(err)
						}
						// One to three stop failures on random
						// processes at random points.
						nStops := 1 + r.Intn(3)
						var plan []string
						for s := 0; s < nStops; s++ {
							victim := r.Intn(len(w.Procs))
							at := 5 + r.Intn(150)
							w.ScheduleStop(victim, at)
							plan = append(plan, fmt.Sprintf("%d@%d", victim, at))
						}
						if err := w.Run(); err != nil {
							t.Fatalf("round %d (%v): %v", round, plan, err)
						}
						if !w.AllDone() {
							t.Fatalf("round %d (%v): did not finish", round, plan)
						}
						got := sc.outcome(w)
						if sc.digestExact {
							if strings.Join(got, "|") != strings.Join(want, "|") {
								t.Errorf("round %d (%v): outcome diverged\n got: %.200v\nwant: %.200v", round, plan, got, want)
							}
						} else {
							if eq, complete := recovery.Equivalent(got, want); !eq || !complete {
								t.Errorf("round %d (%v): output not consistent (eq=%v complete=%v)", round, plan, eq, complete)
							}
						}
					}
				})
			}
		})
	}
}

// TestChaosObservability runs one instrumented gauntlet round end to end —
// the nvi editor under CPVS with stop failures and a kernel fault window —
// and checks that the observability layer saw the whole story: crash and
// fault metrics accumulated, rollbacks were measured, and the exported
// trace is valid Chrome trace-event JSON with the promised shapes.
func TestChaosObservability(t *testing.T) {
	e := nvi.New("doc.txt", faults.NviInitial())
	e.ThinkTime = 0
	e.RecoveryFile = true
	w := kernelWorld(1, e)
	w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(3, 200))
	w.RecordTrace = false
	w.MaxSteps = 2_000_000
	m, tr := w.EnableObs(true)
	k := w.OS.(*kernel.Kernel)
	d := dc.New(w, protocol.CPVS, stablestore.Rio)
	crashes := 0
	d.RecoveryHook = func(p *sim.Proc, reason string) {
		crashes++
		if crashes > 4 {
			d.DisableRecovery = true
		}
	}
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	w.ScheduleStop(0, 40)
	injected := false
	injectAt := 5 * time.Millisecond
	for {
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if !injected && w.Clock >= injectAt {
			injected = true
			k.InjectFault(0, 2*time.Millisecond)
		}
	}
	if !w.AllDone() && !w.Procs[0].Dead() {
		t.Fatal("instrumented run hung (neither done nor abandoned)")
	}

	pm := &m.Procs[0]
	if pm.Crashes == 0 {
		t.Error("metrics recorded no crashes despite a scheduled stop")
	}
	if depth := m.Hists(0).RollbackDepth.Count; pm.Rollbacks == 0 || depth != pm.Rollbacks {
		t.Errorf("rollback metrics inconsistent: rollbacks=%d depth count=%d",
			pm.Rollbacks, depth)
	}
	if pm.Commits == 0 || pm.CommitBytes == 0 {
		t.Errorf("commit metrics empty: commits=%d bytes=%d", pm.Commits, pm.CommitBytes)
	}
	if m.FaultWindows == 0 {
		t.Error("kernel fault window was injected but not counted")
	}
	if pm.Syscalls == 0 || len(m.SyscallByName) == 0 {
		t.Error("kernel syscall metrics empty under a syscall-heavy workload")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tracks, spans, fs, fe, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("gauntlet trace is not valid Chrome trace JSON: %v", err)
	}
	if tracks < 1 || spans == 0 {
		t.Errorf("trace shapes too thin: tracks=%d spans=%d", tracks, spans)
	}
	if fs != fe {
		t.Errorf("unbalanced flow arrows: %d starts, %d ends", fs, fe)
	}
	for _, want := range []string{`"commit"`, `"rollback"`, `"fault-window"`, `"crash: `} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace missing %s events", want)
		}
	}
}

// TestChaosKernelFaults subjects nvi and postgres to kernel fault windows
// under recovery: the run must either complete or be deliberately abandoned
// after a bounded crash loop (committed corruption — a Lose-work conflict,
// not a hang).
func TestChaosKernelFaults(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		app := app
		t.Run(app, func(t *testing.T) {
			for round := int64(0); round < 6; round++ {
				var w *sim.World
				if app == "nvi" {
					e := nvi.New("doc.txt", faults.NviInitial())
					e.ThinkTime = 0
					e.RecoveryFile = true
					w = kernelWorld(1, e)
					w.Procs[0].Ctx().Inputs = nvi.Script(faults.NviSession(3, 200))
				} else {
					db := postgres.New("t.dat")
					w = kernelWorld(1, db)
					w.Procs[0].Ctx().Inputs = postgres.Script(faults.PostgresSession(5, 120))
				}
				w.RecordTrace = false
				w.MaxSteps = 2_000_000
				k := w.OS.(*kernel.Kernel)
				d := dc.New(w, protocol.CPVS, stablestore.Rio)
				crashes := 0
				d.RecoveryHook = func(p *sim.Proc, reason string) {
					crashes++
					if crashes > 4 {
						d.DisableRecovery = true
					}
				}
				if err := d.Attach(); err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(round))
				injected := false
				injectAt := time.Duration(1+r.Intn(20)) * time.Millisecond
				for {
					more, err := w.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !more {
						break
					}
					if !injected && w.Clock >= injectAt {
						injected = true
						k.InjectFault(0, time.Duration(r.Intn(5))*time.Millisecond)
					}
				}
				if !w.AllDone() && !w.Procs[0].Dead() {
					t.Errorf("round %d: hung (neither done nor abandoned)", round)
				}
			}
		})
	}
}
