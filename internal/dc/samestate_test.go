package dc

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"failtrans/internal/apps/nvi"
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
// any one compared field makes SameState answer false.
func TestDCSameState(t *testing.T) {
	tmpl, fork := sealedEditor(t)
	cases := []struct {
		name   string
		mutate func(f *DC)
		same   bool
	}{
		{"untouched", func(*DC) {}, true},
		{"statistics only", func(f *DC) { f.Stats.Recoveries++; f.ChecksFailed++; f.CommitHook = nil }, true},
		{"log re-cut", func(f *DC) {
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
		}, true},
		{"epoch", func(f *DC) { f.procs[0].epoch++ }, false},
		{"stepsBase", func(f *DC) { f.procs[0].stepsBase++ }, false},
		{"pending commit", func(f *DC) { f.procs[0].pendingCommit = "after-nd" }, false},
		{"nd flag", func(f *DC) { f.procs[0].ndSince = !f.procs[0].ndSince }, false},
		{"dependency", func(f *DC) { f.procs[0].deps = map[int]int{0: 1} }, false},
		{"message dependency", func(f *DC) { f.mutableMsgDeps()[7] = map[int]int{0: 1} }, false},
		{"watermark", func(f *DC) { f.procs[0].watermark = 0 }, false},
		{"taken-over receive", func(f *DC) {
			f.procs[0].retained = []sim.Retained{{Msg: &sim.Msg{ID: 1, Payload: []byte("m")}, At: 3}}
		}, false},
		{"log byte", func(f *DC) {
			ownLog(&f.procs[0].log)
			f.procs[0].log.segs[1][0] ^= 1
		}, false},
		{"segment byte", func(f *DC) {
			seg := f.procs[0].seg
			img := seg.Contents()
			img[len(img)/2] ^= 1
			seg.CommitImage(img, f.registers)
		}, false},
		{"recovery flag", func(f *DC) { f.DisableRecovery = !f.DisableRecovery }, false},
	}
	for _, c := range cases {
		f := fork()
		c.mutate(f)
		if got := f.SameState(tmpl); got != c.same {
			t.Errorf("%s: SameState = %v, want %v", c.name, got, c.same)
		}
	}
	if fork().SameState(kernel.New()) {
		t.Error("a DC matched a kernel")
	}
}

// TestDCSameStateCoversEveryField is the guard over DC.SameState: every
// field of DC and proc is compared or is listed here as behaviour-neutral,
// with the reason.
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
		"msgDepsShared":          "copy-on-write bookkeeping for msgDeps, which is compared",
		"CommitHook":             hook,
		"CommitVeto":             hook,
		"RecoveryHook":           hook,
		"ExpandResourcesOnCrash": hook,
		"SerialCommit":           "vestigial: nothing reads it",
		"ChecksFailed":           stats,
		"Stats":                  stats,
	})
	fieldguard.Check(t, reflect.TypeOf(proc{}), map[string]string{
		"seg": c, "log": c, "watermark": c, "cursor": c, "flushed": c, "deps": c, "epoch": c,
		"stepsBase": c, "pendingCommit": c, "ndSince": c, "replaying": c, "retained": c,
		"img":        "scratch: the image buffer is refilled before every use",
		"replayOpen": "tracer bookkeeping: pairs a replay window's Begin with its End",
	})
}
