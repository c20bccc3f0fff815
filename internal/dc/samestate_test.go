package dc

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/event"
	"failtrans/internal/fieldguard"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// sealedEditor steps an nvi session under CBNDVS-LOG (so the ND log holds
// the logged keystrokes) part-way, seals it with Fork and returns the sealed
// template's DC and a maker of fresh forks of it.
func sealedEditor(t *testing.T) (*DC, func() *DC) {
	t.Helper()
	e := nvi.New("doc.txt", []string{"alpha", "bravo", "charlie"})
	e.ThinkTime = 0
	w := sim.NewWorld(1, e)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.RecordTrace = false
	w.Procs[0].Ctx().Inputs = nvi.Script(strings.Repeat("ihello \x1bjx:w\n", 8) + ":wq\n")
	d := New(w, protocol.CBNDVSLog, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	for w.StepCount() < 150 {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("session ended early: %v", err)
		}
	}
	if _, err := w.Fork(); err != nil {
		t.Fatal(err)
	}
	if d.procs[0].log.size() == 0 || d.procs[0].seg == nil {
		t.Fatal("template has no ND log or no committed segment")
	}
	return d, func() *DC {
		f, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return f.Recovery.(*DC)
	}
}

// ownLog replaces a fork's log segments with private copies of the same
// bytes cut in two at the middle byte, a cut the template's segments do not
// share, so a test may write a byte of the log without touching the
// template's.
func ownLog(l *ndLog) {
	var whole []byte
	for _, seg := range l.segs {
		whole = append(whole, seg...)
	}
	h := len(whole) / 2
	l.segs = [][]byte{whole[:h:h], append([]byte(nil), whole[h:]...)}
}

// TestDCSameState: an untouched fork of a sealed DC is in its template's
// state — also with its ND log cut into different segments — and changing
// any one exactly compared field makes SameState answer false. stepsBase
// matches shifted by the world's Steps offset, and the commit epoch, while
// no dependency refers to it, as a layer offset.
func TestDCSameState(t *testing.T) {
	tmpl, fork := sealedEditor(t)
	const (
		exact = iota
		shifted
		differs
	)
	cases := []struct {
		name   string
		mutate func(f *DC, off *sim.Offsets)
		want   int
	}{
		{"untouched", func(*DC, *sim.Offsets) {}, exact},
		{"statistics only", func(f *DC, _ *sim.Offsets) { f.Stats.Recoveries++; f.ChecksFailed++; f.CommitHook = nil }, exact},
		{"log re-cut", func(f *DC, _ *sim.Offsets) {
			ps := &f.procs[0]
			w, c, fl := ps.log.offset(ps.watermark), ps.log.offset(ps.cursor), ps.log.offset(ps.flushed)
			ownLog(&ps.log)
			at := func(off int) int {
				if n := len(ps.log.segs[0]); off >= n {
					return logPos(1, off-n)
				}
				return logPos(0, off)
			}
			ps.watermark, ps.cursor, ps.flushed = at(w), at(c), at(fl)
		}, exact},
		{"epoch", func(f *DC, _ *sim.Offsets) { f.procs[0].epoch++ }, shifted},
		{"stepsBase with the Steps offset", func(f *DC, off *sim.Offsets) { f.procs[0].stepsBase += 5; off.Proc = 5 }, exact},
		{"stepsBase", func(f *DC, _ *sim.Offsets) { f.procs[0].stepsBase++ }, differs},
		{"epoch with a dependency", func(f *DC, _ *sim.Offsets) {
			f.procs[0].epoch++
			f.msgDeps = map[int64]depSnap{7: {{proc: 0, epoch: 1}}}
		}, differs},
		{"replay cursor", func(f *DC, _ *sim.Offsets) { f.procs[0].cursor = f.procs[0].watermark }, differs},
		{"pending commit", func(f *DC, _ *sim.Offsets) { f.procs[0].pendingCommit = "after-nd" }, differs},
		{"nd flag", func(f *DC, _ *sim.Offsets) { f.procs[0].ndSince = !f.procs[0].ndSince }, differs},
		{"dependency", func(f *DC, _ *sim.Offsets) { f.procs[0].deps = map[int]int{0: 1} }, differs},
		{"message dependency", func(f *DC, _ *sim.Offsets) { f.msgDeps = map[int64]depSnap{7: {{proc: 0, epoch: 1}}} }, differs},
		{"dependency scratch", func(f *DC, _ *sim.Offsets) {
			f.scratch = &depScratch{slab: make([]dep, 3, 8), members: []*sim.Proc{f.World.Procs[0]}}
		}, exact},
		{"watermark", func(f *DC, _ *sim.Offsets) { f.procs[0].watermark = 0 }, differs},
		{"taken-over receive", func(f *DC, _ *sim.Offsets) {
			f.procs[0].retained = []sim.Retained{{Msg: &sim.Msg{ID: 1, Payload: []byte("m")}, At: 3}}
		}, differs},
		{"log byte", func(f *DC, _ *sim.Offsets) {
			ownLog(&f.procs[0].log)
			f.procs[0].log.segs[1][0] ^= 1
		}, differs},
		{"segment byte", func(f *DC, _ *sim.Offsets) {
			seg := f.procs[0].seg
			img := seg.Contents()
			img[len(img)/2] ^= 1
			seg.SetContents(img)
			seg.Commit(f.registers)
		}, differs},
		{"recovery flag", func(f *DC, _ *sim.Offsets) { f.DisableRecovery = !f.DisableRecovery }, differs},
	}
	for _, c := range cases {
		f := fork()
		var off sim.Offsets
		c.mutate(f, &off)
		world := off
		got := differs
		if f.SameState(tmpl, &off) {
			got = exact
			if off != world {
				got = shifted
			}
		}
		if got != c.want {
			t.Errorf("%s: SameState classed the fork %d, want %d (0 exact, 1 shifted, 2 differs)", c.name, got, c.want)
		}
	}
	if fork().SameState(kernel.New(), &sim.Offsets{}) {
		t.Error("a DC matched a kernel")
	}
}

// TestDCSameStateCoversEveryField is the guard over DC.SameState: every
// field of DC and proc is compared exactly, compared as a position offset, or
// listed here as behaviour-neutral, with the reason.
func TestDCSameStateCoversEveryField(t *testing.T) {
	const (
		hook  = "per-run harness wiring: a fork never inherits it"
		stats = "statistics: read by reports, never by a step"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(DC{}), map[string]string{
		"Policy": c, "Medium": c, "PageSize": c, "procs": c, "msgDeps": c, "registers": c,
		"DisableRecovery": c, "CheckBeforeCommit": c, "EssentialOnly": c,
		"World":                  "wiring to the owning world",
		"CommitHook":             hook,
		"CommitVeto":             hook,
		"RecoveryHook":           hook,
		"ExpandResourcesOnCrash": hook,
		"SerialCommit":           "vestigial: nothing reads it",
		"msgDepsSweep":           "sweep schedule: a sweep drops only snapshots no receive can apply",
		"scratch":                "scratch: the slab snapshots are carved from (what one holds is compared through msgDeps) and dependentSet's result",
		"ChecksFailed":           stats,
		"Stats":                  stats,
	})
	fieldguard.Check(t, reflect.TypeOf(proc{}), map[string]string{
		"seg": c, "log": c, "watermark": c, "cursor": c, "flushed": c, "deps": c,
		"pendingCommit": c, "ndSince": c, "replaying": c, "retained": c,
		"stepsBase":  "offset: a Steps position, compared shifted by the world's Steps offset",
		"epoch":      "offset: advances at each commit and is read only against the dependency maps; exact while one holds an entry",
		"img":        "scratch: the image buffer is refilled before every use",
		"replayOpen": "tracer bookkeeping: pairs a replay window's Begin with its End",
	})
}

// TestSnapshotsIgnoreGatherOrder: a send's dependency snapshot is gathered
// from the sender's dependency map, whose iteration order varies from run to
// run, and is sorted by process, so the same dependencies make the same
// snapshot and the DCs holding them compare equal in SameState.
func TestSnapshotsIgnoreGatherOrder(t *testing.T) {
	const procs = 5
	build := func(order []int) *DC {
		progs := make([]sim.Program, procs)
		for i := range progs {
			progs[i] = &idleProg{}
		}
		w := sim.NewWorld(1, progs...)
		w.RecordTrace = false
		d := New(w, protocol.CPV2PC, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		ps := &d.procs[2]
		ps.ndSince = true
		ps.deps = make(map[int]int)
		for _, q := range order {
			ps.deps[q] = d.procs[q].epoch
		}
		d.AfterEvent(w.Procs[2], event.Event{Kind: event.Send, Msg: 9, Peer: 0})
		return d
	}
	ref := build([]int{0, 1, 3, 4})
	want := make(depSnap, procs)
	for q := range want {
		want[q] = dep{proc: q, epoch: ref.procs[q].epoch}
	}
	if got := ref.msgDeps[9]; !slices.Equal(got, want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	for trial := range 32 {
		order := []int{4, 3, 1, 0}
		if trial%2 == 1 {
			order = []int{1, 4, 0, 3}
		}
		d := build(order)
		if got := d.msgDeps[9]; !slices.Equal(got, want) {
			t.Fatalf("trial %d: snapshot %v, want %v", trial, got, want)
		}
		if !d.SameState(ref, &sim.Offsets{}) {
			t.Fatalf("trial %d: equal dependencies gathered in another order do not compare equal", trial)
		}
	}
}
