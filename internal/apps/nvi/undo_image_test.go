package nvi

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// recoverableSession builds an editor world under CPVS with the kernel
// attached, as the fault study runs nvi.
func recoverableSession(t *testing.T, seed int64, keys string, contents []string) (*sim.World, *dc.DC) {
	t.Helper()
	e := New("doc.txt", contents)
	e.ThinkTime = 0
	e.RecoveryFile = true
	w := sim.NewWorld(seed, e)
	w.RecordTrace = false
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script(keys)
	d := dc.New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	return w, d
}

// randomKeys draws a session that visits every command with an image
// consequence: inserts (with newlines), opens, deletes, substitutes, undo,
// undo-then-redo and :w.
func randomKeys(r *rand.Rand, n int) string {
	words := []string{"alpha", "be ta", "gam\nma", "d", ""}
	var b strings.Builder
	for b.Len() < n {
		switch r.Intn(12) {
		case 0, 1:
			b.WriteString(string("hjkl0$wb"[r.Intn(8)]))
		case 2, 3:
			b.WriteString("i" + words[r.Intn(len(words))] + "\x1b")
		case 4:
			b.WriteString("a" + words[r.Intn(len(words))] + "\x1b")
		case 5:
			b.WriteString("o" + words[r.Intn(len(words))] + "\x1b")
		case 6:
			b.WriteString("x")
		case 7:
			b.WriteString([]string{"dd", "D"}[r.Intn(2)])
		case 8:
			b.WriteString("u")
		case 9:
			b.WriteString("uu") // undo, then redo
		case 10:
			b.WriteString(":w\n")
		default:
			b.WriteString(":%s/a/xy/\n")
		}
	}
	return b.String() + ":wq\n"
}

// checkImage holds e to the StateAppender contract and to restore∘marshal
// being the identity, undo section included.
func checkImage(t *testing.T, seed int64, e *Editor) {
	t.Helper()
	state, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.AppendState([]byte("prefix"))
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), state...)) {
		t.Fatalf("seed %d key %d: AppendState(prefix) is not prefix+MarshalState (err %v)", seed, e.Keystroke, err)
	}
	var twin Editor
	if err := twin.UnmarshalState(state); err != nil {
		t.Fatalf("seed %d key %d: restoring its own image: %v", seed, e.Keystroke, err)
	}
	if again, _ := twin.MarshalState(); !bytes.Equal(again, state) {
		t.Fatalf("seed %d key %d: marshal∘restore changed the image", seed, e.Keystroke)
	}
	if e.UndoValid {
		lines, sums := e.undoBuffer()
		tl, ts := twin.undoBuffer()
		if len(lines) != len(tl) || len(sums) != len(ts) || len(lines) != len(sums) {
			t.Fatalf("seed %d key %d: undo snapshot of %d lines, %d sums restores as %d lines, %d sums",
				seed, e.Keystroke, len(lines), len(sums), len(tl), len(ts))
		}
		for i := range lines {
			if !bytes.Equal(lines[i], tl[i]) || sums[i] != ts[i] {
				t.Fatalf("seed %d key %d: undo line %d changed in the round trip", seed, e.Keystroke, i)
			}
		}
	}
}

// TestRandomSessionsImageContract: over randomized sessions — one fault of
// each kind, undo and undo-then-redo, :w, a stop failure with its rollback,
// and a fork taken in the middle of insert mode, the run carrying on on the
// fork — AppendState is MarshalState behind a prefix and restore∘marshal is
// the identity after every step.
func TestRandomSessionsImageContract(t *testing.T) {
	kinds := []sim.FaultKind{sim.NoFault, sim.StackBitFlip, sim.HeapBitFlip, sim.DestReg,
		sim.InitFault, sim.DeleteBranch, sim.DeleteInstr, sim.OffByOne}
	forks, recoveries, undos := 0, 0, 0
	for seed := int64(0); seed < 64; seed++ {
		r := rand.New(rand.NewSource(seed))
		w, d := recoverableSession(t, seed, randomKeys(r, 120), []string{"some text here", "and more", "", "a last line"})
		inj := &oneShotInjector{kind: kinds[seed%8], afterN: 1 + r.Intn(60)}
		w.Faults = inj
		w.ScheduleStop(0, 30+r.Intn(200))
		w.MaxSteps = 5000 // a fault committed into the image can crash every re-execution
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		forked := false
		for {
			more, err := w.Step()
			if err != nil && w.StepCount() < w.MaxSteps {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err != nil || !more {
				break
			}
			e := w.Procs[0].Prog.(*Editor)
			checkImage(t, seed, e)
			if e.Key == 'u' && e.Phase == phaseRender && e.UndoValid {
				undos++
			}
			if !forked && e.Mode == 1 && e.Phase == phaseRead && e.Keystroke > 10 {
				before, _ := e.MarshalState()
				f, err := w.Fork()
				if err != nil {
					t.Fatal(err)
				}
				f.Faults, f.MaxSteps = inj, w.MaxSteps
				w, d, forked = f, f.Recovery.(*dc.DC), true
				forks++
				fe := w.Procs[0].Prog.(*Editor)
				if after, _ := fe.MarshalState(); !bytes.Equal(after, before) {
					t.Fatalf("seed %d: the fork marshals a different image from its template", seed)
				}
				if after, _ := e.MarshalState(); !bytes.Equal(after, before) {
					t.Fatalf("seed %d: forking changed the template's image", seed)
				}
			}
		}
		recoveries += d.Stats.Recoveries
	}
	if forks < 32 || recoveries < 32 || undos < 32 {
		t.Errorf("%d mid-insert forks, %d rollbacks, %d undos over 64 sessions: the sessions do not cover what the test names", forks, recoveries, undos)
	}
}

// TestSnapshotUndoSteadyStateZeroAllocs: once undoBuf has the document's
// size, the snapshot every mutating command takes is encoded in place.
func TestSnapshotUndoSteadyStateZeroAllocs(t *testing.T) {
	_, e := runSession(t, "ihello\x1b", []string{"some", "lines", "", "of text"})
	e.snapshotUndo()
	if n := testing.AllocsPerRun(100, e.snapshotUndo); n != 0 {
		t.Errorf("steady-state snapshotUndo allocates %.1f times, want 0", n)
	}
}

// stepToKeystroke steps w until its editor has applied n keystrokes and is
// about to read the next.
func stepToKeystroke(t *testing.T, w *sim.World, n int) *Editor {
	t.Helper()
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	e := w.Procs[0].Prog.(*Editor)
	for e.Keystroke < n || e.Phase != phaseRead {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("stepping to keystroke %d: more=%v err=%v", n, more, err)
		}
	}
	return e
}

// TestForkSharesUndoSectionUntilReplaced: a fork reads its template's undo
// section in place — a fork that never edits, or that only types on in
// insert mode, never copies it, commits included — and the first command
// that takes a new snapshot writes the fork's own storage, leaving the
// template's section as it was.
func TestForkSharesUndoSectionUntilReplaced(t *testing.T) {
	for _, tc := range []struct {
		name, keys string
		forkAt     int
		shares     bool
	}{
		{"moves only", "ihello\x1bjjkkll", 7, true},
		{"types on in insert mode", "ihello world\x1bjj", 4, true},
		{"deletes", "ihello\x1bjjx", 7, false},
		{"undoes", "ihello\x1bju", 7, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := recoverableSession(t, 1, tc.keys, []string{"some", "lines", "of text"})
			tmpl := stepToKeystroke(t, w, tc.forkAt)
			if !tmpl.UndoValid || len(tmpl.undo) == 0 {
				t.Fatal("the template holds no undo snapshot")
			}
			section := append([]byte(nil), tmpl.undo...)
			contents := strings.Join(tmpl.Contents(), "|")
			fw, err := w.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if err := fw.Run(); err != nil {
				t.Fatal(err)
			}
			f := fw.Procs[0].Prog.(*Editor)
			if fw.Recovery.(*dc.DC).Stats.TotalCheckpoints() == 0 {
				t.Fatal("the fork never committed")
			}
			shares := len(f.undo) > 0 && &f.undo[0] == &tmpl.undo[0]
			if shares != tc.shares || (tc.shares && f.undoBuf != nil) {
				t.Errorf("fork shares the template's undo section: %v (own storage %d bytes), want %v", shares, cap(f.undoBuf), tc.shares)
			}
			if !bytes.Equal(tmpl.undo, section) || strings.Join(tmpl.Contents(), "|") != contents {
				t.Error("the fork's run changed its sealed template")
			}
		})
	}
}
