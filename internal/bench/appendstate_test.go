package bench

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// postgresWorld builds the Table 1 database on a session of n queries, as the
// fault study does.
func postgresWorld(n int) *sim.World {
	w := sim.NewWorld(1, postgres.New("study.dat"))
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = postgres.Script(faults.PostgresSession(1, n))
	return w
}

// imageWorlds builds one recoverable world per program the tree ships — the
// four Figure 8 apps, the Table 1 database and the echo fleet (servers and
// clients) — each with a stop failure scheduled, so a session commits, rolls
// back and commits again.
func imageWorlds(t *testing.T) map[string]*sim.World {
	t.Helper()
	worlds := make(map[string]*sim.World)
	for _, app := range []string{"nvi", "magic", "xpilot", "treadmarks"} {
		w, err := BuildWorld(app, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		worlds[app] = w
	}
	worlds["postgres"] = postgresWorld(200)
	worlds["fleet"] = sim.NewWorld(23, fleet.Fleet(fleet.Sized(64))...)
	for app, w := range worlds {
		w.RecordTrace = false
		pol := protocol.CPVS
		if len(w.Procs) > 1 {
			pol = protocol.CPV2PC
		}
		if err := dc.New(w, pol, stablestore.Rio).Attach(); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		stopAt := 40
		if app == "fleet" {
			stopAt = 10 // a client's whole session is a few dozen steps
		}
		w.ScheduleStop(len(w.Procs)-1, stopAt)
	}
	return worlds
}

// checkAppendState holds p's program to the StateAppender contract:
// AppendState(prefix) is prefix followed by exactly MarshalState's bytes, and
// a zero program of the same type restored from those bytes marshals them
// again.
func checkAppendState(t *testing.T, app string, p *sim.Proc) {
	t.Helper()
	sa, ok := p.Prog.(sim.StateAppender)
	if !ok {
		t.Fatalf("%s: %T is not a sim.StateAppender", app, p.Prog)
	}
	state, err := p.Prog.MarshalState()
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	prefix := []byte("prefix")
	got, err := sa.AppendState(append([]byte(nil), prefix...))
	if err != nil || !bytes.Equal(got, append(prefix, state...)) {
		t.Fatalf("%s step %d: AppendState(prefix) is not prefix+MarshalState (err %v, %d vs %d+%d bytes)",
			app, p.Steps, err, len(got), len(prefix), len(state))
	}
	twin := reflect.New(reflect.TypeOf(p.Prog).Elem()).Interface().(sim.Program)
	if err := twin.UnmarshalState(state); err != nil {
		t.Fatalf("%s step %d: restoring its own image: %v", app, p.Steps, err)
	}
	if again, err := twin.MarshalState(); err != nil || !bytes.Equal(again, state) {
		t.Fatalf("%s step %d: marshal∘restore changed the image (err %v)", app, p.Steps, err)
	}
}

// TestAppendStateContract runs every program's session — commits, a stop
// failure, the rollback and the re-execution — and checks the contract after
// every step of every process.
func TestAppendStateContract(t *testing.T) {
	for app, w := range imageWorlds(t) {
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		for steps := 0; steps < 4000; steps++ {
			more, err := w.Step()
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			if !more {
				break
			}
			if app == "fleet" && steps%16 != 0 {
				continue // 65 processes: sample the steps
			}
			for _, p := range w.Procs {
				checkAppendState(t, app, p)
			}
		}
		if d := w.Recovery.(*dc.DC); d.Stats.Recoveries == 0 || d.Stats.TotalCheckpoints() == 0 {
			t.Errorf("%s: %d commits, %d recoveries: the session exercised neither", app, d.Stats.TotalCheckpoints(), d.Stats.Recoveries)
		}
	}
}

// TestAppendCheckpointImageZeroAllocs: once the image buffer has its size, a
// checkpoint image of any program is assembled in it without allocating.
func TestAppendCheckpointImageZeroAllocs(t *testing.T) {
	for app, w := range imageWorlds(t) {
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		for steps := 0; steps < 600; steps++ {
			if more, err := w.Step(); err != nil || !more {
				break
			}
		}
		for _, p := range w.Procs {
			buf, err := p.AppendCheckpointImage(nil, false) // sizes the buffer and warms the scratch
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if buf, err = p.AppendCheckpointImage(buf[:0], false); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s/%s: a warmed AppendCheckpointImage allocates %.1f times, want 0", app, p.Prog.Name(), n)
			}
			if app == "fleet" && p.Index > 2 {
				break // one server, two clients
			}
		}
	}
}

// TestForkFirstCommitAllocatesOneBuffer: the first commit of a fork allocates
// dc's image buffer for the process and nothing else — no program-side
// encode buffer, and (nothing having changed since the template's commit) no
// page. The kernel's own first-touch copy of the process's node is taken
// before the count starts.
func TestForkFirstCommitAllocatesOneBuffer(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		w := imageWorlds(t)[app]
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		for steps := 0; steps < 300; steps++ {
			if more, err := w.Step(); err != nil || !more {
				t.Fatalf("%s: stepping to the fork point: more=%v err=%v", app, more, err)
			}
		}
		for _, p := range w.Procs {
			if err := w.Recovery.(*dc.DC).Checkpoint(p); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 10
		forks := make([]*sim.World, runs+1) // AllocsPerRun makes one warm-up call
		for i := range forks {
			f, err := w.Fork()
			if err != nil {
				t.Fatal(err)
			}
			f.OS.SaveProcState(0)
			forks[i] = f
		}
		i := 0
		if n := testing.AllocsPerRun(runs, func() {
			f := forks[i]
			if err := f.Recovery.(*dc.DC).Checkpoint(f.Procs[0]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 1 {
			t.Errorf("%s: a fork's first commit allocates %.1f times, want 1 (dc's image buffer)", app, n)
		}
	}
}
