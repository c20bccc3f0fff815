package faults

import (
	"reflect"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/sim"
)

// holdsBase reports whether the struct v points to has a non-nil unexported
// `base` field — vista.Segment and the kernel's nodes both name the template
// a copy-on-write fork reads through that way.
func holdsBase(t *testing.T, v reflect.Value) bool {
	t.Helper()
	f := v.Elem().FieldByName("base")
	if !f.IsValid() {
		t.Fatalf("%s has no base field", v.Elem().Type())
	}
	return !f.IsNil()
}

// TestForkCostBySnapshotDepth pins what freeze-and-continue capture must
// preserve along the chain of snapshots, each sealed from a fork of the one
// before: a sealed world is flat — no segment or kernel node reads through
// a base — so forking the deepest snapshot allocates exactly what
// forking a never-forked world at the same step does, and no more than the
// app's ceiling. Run with -v for the per-snapshot fork cost table,
// which localizes a regression to the depth where a layer stops sharing.
func TestForkCostBySnapshotDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full-length templates")
	}
	// What one fork of these one-process worlds allocates: 5 in sim (the
	// world, its outputs, process table, process slab and clock closure), 2
	// in dc (the DC and its process records), 1 vista segment, 3 in the
	// kernel (the kernel, its node slab and descriptor array), and the
	// program's own fork: 4 for nvi's editor, 5 or 6 for postgres's DB,
	// index header, pool, page map and LRU list.
	ceiling := map[string]float64{"nvi": 15, "postgres": 17}
	for _, app := range []string{"nvi", "postgres"} {
		s := NewAppStudy(app)
		c, err := s.buildPrefixCache()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.snaps) < 8 {
			t.Fatalf("%s: template sealed only %d snapshots", app, len(c.snaps))
		}
		// The twin reaches the deepest snapshot's step without ever being
		// forked. (Comparing with snapshot 0 instead would only hold for nvi:
		// a postgres fork rebuilds the B-tree and pool, which grow.)
		deepest := &c.snaps[len(c.snaps)-1]
		var commits []int
		twin, _, err := s.open(&prefixSnapshot{}, &visitCounter{}, func(d *dc.DC) { s.armInjection(d, &commits) })
		if err != nil {
			t.Fatal(err)
		}
		for twin.StepCount() < deepest.steps {
			if more, err := twin.Step(); err != nil || !more {
				t.Fatalf("%s: twin stopped at step %d: more=%v err=%v", app, twin.StepCount(), more, err)
			}
		}
		allocs := func(w *sim.World) float64 {
			return testing.AllocsPerRun(100, func() {
				if _, err := w.Fork(); err != nil {
					t.Fatal(err)
				}
			})
		}
		got, want := allocs(deepest.world), allocs(twin)
		if got != want {
			t.Errorf("%s: forking snapshot %d allocates %.0f times, a never-forked world at the same step %.0f times",
				app, len(c.snaps)-1, got, want)
		}
		t.Logf("%s: a fork of snapshot %d allocates %.0f times", app, len(c.snaps)-1, got)
		if got > ceiling[app] {
			t.Errorf("%s: a fork allocates %.0f times, more than the ceiling of %.0f", app, got, ceiling[app])
		}
		for i := range c.snaps {
			snap := &c.snaps[i]
			procs := reflect.ValueOf(snap.world.Recovery).Elem().FieldByName("procs")
			for j := 0; j < procs.Len(); j++ {
				if holdsBase(t, procs.Index(j).FieldByName("seg")) {
					t.Errorf("%s: snapshot %d segment %d reads through a base", app, i, j)
				}
			}
			nodes := reflect.ValueOf(snap.world.OS).Elem().FieldByName("nodes")
			for pid := 0; pid < nodes.Len(); pid++ {
				if holdsBase(t, nodes.Index(pid).Addr()) {
					t.Errorf("%s: snapshot %d kernel node %d reads through a base", app, i, pid)
				}
			}
			const reps = 200
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := snap.world.Fork(); err != nil {
					t.Fatal(err)
				}
			}
			ns := time.Since(start).Nanoseconds() / reps
			t.Logf("%s snap %2d at=%4d steps=%5d fork=%6dns", app, i, snap.at, snap.steps, ns)
		}
	}
}
