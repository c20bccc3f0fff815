package dc

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"failtrans/internal/apps/treadmarks"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// treadmarksWorld builds the Figure 8 treadmarks world (four processes) with
// DC attached under pol.
func treadmarksWorld(t *testing.T, pol protocol.Policy) (*sim.World, *DC) {
	t.Helper()
	progs, err := treadmarks.Fleet(4, 72, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(7, progs...)
	d := New(w, pol, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	return w, d
}

// cloneProcs deep-copies per-process records: dependency maps, log
// segments, taken-over receives and image buffers by content, segments by
// identity (a frozen template's segment must be the same one after any fork
// has run).
func cloneProcs(ps []proc) []proc {
	out := slices.Clone(ps)
	for i := range out {
		c := &out[i]
		c.deps = maps.Clone(c.deps)
		c.log.segs = slices.Clone(c.log.segs)
		for j, seg := range c.log.segs {
			c.log.segs[j] = slices.Clone(seg)
		}
		c.retained = slices.Clone(c.retained)
		c.img = slices.Clone(c.img)
	}
	return out
}

// TestForkLeavesTemplateUntouched: a fork of a frozen DC runs to completion —
// receiving, pruning dependencies, logging, crashing and replaying — without
// writing any of its template's per-process state. Treadmarks programs are
// not forkable, so the fork drives a twin world stepped to the same point:
// the simulation is deterministic, so the twin's processes are in exactly
// the state the template's DC recorded. The redelivery case forks while a
// rolled-back process still has taken-over receives to be handed back: the
// fork hands them back (vacating its own list's slots) and the template's
// list keeps every one.
func TestForkLeavesTemplateUntouched(t *testing.T) {
	for _, c := range []struct {
		name string
		pol  protocol.Policy
		stop int // a stop of process 1 before the fork, at this event; 0 for none
	}{
		{"CBNDV-2PC", protocol.CBNDV2PC, 0},
		{"CBNDVS-LOG", protocol.CBNDVSLog, 0},
		{"CBNDV-2PC redelivery", protocol.CBNDV2PC, 60},
	} {
		pol := c.pol
		t.Run(c.name, func(t *testing.T) {
			tmpl, td := treadmarksWorld(t, pol)
			// Fork once some process holds a dependency (CBNDV-2PC) or a
			// logged record (CBNDVS-LOG, whose logged receives carry none),
			// or, after a stop, a receive still to be handed back.
			held := func() bool {
				return slices.ContainsFunc(td.procs, func(ps proc) bool { return len(ps.deps) > 0 || ps.log.end() > 0 })
			}
			if c.stop > 0 {
				tmpl.ScheduleStop(1, c.stop)
				held = func() bool { return len(td.procs[1].retained) > 0 }
			}
			for !held() {
				if more, err := tmpl.Step(); err != nil || !more {
					t.Fatalf("template stopped at step %d holding no dependency or record: more=%v err=%v", tmpl.StepCount(), more, err)
				}
			}
			twin, _ := treadmarksWorld(t, pol)
			if c.stop > 0 {
				twin.ScheduleStop(1, c.stop)
			}
			for twin.StepCount() < tmpl.StepCount() {
				if _, err := twin.Step(); err != nil {
					t.Fatal(err)
				}
			}
			tmpl.Freeze()
			before := cloneProcs(td.procs)
			fd := td.ForkRecovery(twin).(*DC)
			twin.Recovery = fd
			twin.ScheduleStop(1, twin.Procs[1].Steps+40)
			if err := twin.Run(); err != nil {
				t.Fatal(err)
			}
			if !twin.AllDone() || fd.Stats.Recoveries == 0 {
				t.Fatalf("fork did not finish through a recovery: done=%v recoveries=%d", twin.AllDone(), fd.Stats.Recoveries)
			}
			if c.stop > 0 && (len(fd.procs[1].retained) != 0 || fd.Stats.Divergences != td.Stats.Divergences) {
				t.Fatalf("the fork did not hand back the pending receives: %d left, %d divergences (template %d)",
					len(fd.procs[1].retained), fd.Stats.Divergences, td.Stats.Divergences)
			}
			if slices.EqualFunc(before, fd.procs, func(a, b proc) bool {
				return maps.Equal(a.deps, b.deps) && a.log.end() == b.log.end() && len(a.retained) == len(b.retained)
			}) {
				t.Fatal("the fork's run left every dependency map, log and receive list as the template had it; the check is vacuous")
			}
			if after := cloneProcs(td.procs); !reflect.DeepEqual(before, after) {
				for i := range before {
					if !reflect.DeepEqual(before[i], after[i]) {
						t.Errorf("template process %d changed under its fork:\nbefore %+v\nafter  %+v", i, before[i], after[i])
					}
				}
			}
		})
	}
}

// TestForkSnapshotsStable: two forks of one sealed 2PC DC each carve new
// dependency snapshots while they run, and neither writes a snapshot the
// other or their template holds. The template's slab block has spare
// capacity when it is sealed; were a fork to carve from it, the second
// fork's sends — made different from the first's by a crash and rollback
// of process 1 — would overwrite the first's snapshots.
func TestForkSnapshotsStable(t *testing.T) {
	pol := protocol.CBNDV2PC
	tmpl, td := treadmarksWorld(t, pol)
	for len(td.msgDeps) == 0 || cap(td.scratch.slab) == len(td.scratch.slab) {
		if more, err := tmpl.Step(); err != nil || !more {
			t.Fatalf("template stopped at step %d without a snapshot: more=%v err=%v", tmpl.StepCount(), more, err)
		}
	}
	twin := func() *sim.World {
		w, _ := treadmarksWorld(t, pol)
		for w.StepCount() < tmpl.StepCount() {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	deepCopy := func(m map[int64]depSnap) map[int64]depSnap {
		out := make(map[int64]depSnap, len(m))
		for id, snap := range m {
			out[id] = slices.Clone(snap)
		}
		return out
	}
	sameSnaps := func(a, b map[int64]depSnap) bool { return maps.EqualFunc(a, b, slices.Equal[depSnap]) }
	w1, w2 := twin(), twin()
	tmpl.Freeze()
	tmplSnaps := deepCopy(td.msgDeps)
	f1 := td.ForkRecovery(w1).(*DC)
	w1.Recovery = f1
	f2 := td.ForkRecovery(w2).(*DC)
	w2.Recovery = f2
	for range 400 {
		if more, err := w1.Step(); err != nil || !more {
			t.Fatalf("first fork stopped early: more=%v err=%v", more, err)
		}
	}
	if sameSnaps(f1.msgDeps, tmplSnaps) {
		t.Fatal("the first fork wrote no snapshot of its own; the check is vacuous")
	}
	f1Snaps := deepCopy(f1.msgDeps)
	w2.ScheduleStop(1, w2.Procs[1].Steps+5)
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if f2.Stats.Recoveries == 0 {
		t.Fatal("the second fork did not roll back; its sends repeat the first's")
	}
	if !sameSnaps(f1.msgDeps, f1Snaps) {
		t.Error("the second fork's sends changed the first fork's snapshots")
	}
	if !sameSnaps(td.msgDeps, tmplSnaps) {
		t.Error("a fork's sends changed its template's snapshots")
	}
}
