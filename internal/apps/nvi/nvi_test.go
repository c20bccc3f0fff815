package nvi

import (
	"strings"
	"testing"
	"time"

	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// runSession executes a keystroke script against an editor and returns the
// world and editor.
func runSession(t testing.TB, keys string, contents []string) (*sim.World, *Editor) {
	t.Helper()
	e := New("doc.txt", contents)
	e.ThinkTime = 0 // non-interactive for unit tests
	w := sim.NewWorld(1, e)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script(keys)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w, e
}

func TestInsertText(t *testing.T) {
	_, e := runSession(t, "ihello\x1b", nil)
	if got := e.Contents(); len(got) != 1 || got[0] != "hello" {
		t.Errorf("contents = %q", got)
	}
	if e.Col != 4 {
		t.Errorf("cursor col = %d, want 4 (vi moves left on ESC)", e.Col)
	}
}

func TestInsertNewline(t *testing.T) {
	_, e := runSession(t, "iab\ncd\x1b", nil)
	got := e.Contents()
	if len(got) != 2 || got[0] != "ab" || got[1] != "cd" {
		t.Errorf("contents = %q", got)
	}
	if e.LineCount != 2 {
		t.Errorf("LineCount = %d", e.LineCount)
	}
}

func TestAppendCommand(t *testing.T) {
	_, e := runSession(t, "axyz\x1b", []string{"0"})
	if got := e.Contents()[0]; got != "0xyz" {
		t.Errorf("contents = %q", got)
	}
}

func TestMovementAndDelete(t *testing.T) {
	// Start on "abc"; move right, delete 'b'.
	_, e := runSession(t, "lx", []string{"abc"})
	if got := e.Contents()[0]; got != "ac" {
		t.Errorf("contents = %q", got)
	}
}

func TestDeleteLine(t *testing.T) {
	_, e := runSession(t, "jdd", []string{"one", "two", "three"})
	got := e.Contents()
	if len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Errorf("contents = %q", got)
	}
}

func TestDeleteLastLineLeavesEmptyBuffer(t *testing.T) {
	_, e := runSession(t, "dd", []string{"only"})
	got := e.Contents()
	if len(got) != 1 || got[0] != "" {
		t.Errorf("contents = %q", got)
	}
}

func TestOpenLine(t *testing.T) {
	_, e := runSession(t, "onew\x1b", []string{"first"})
	got := e.Contents()
	if len(got) != 2 || got[1] != "new" {
		t.Errorf("contents = %q", got)
	}
}

func TestLineStartEnd(t *testing.T) {
	_, e := runSession(t, "$", []string{"abcde"})
	if e.Col != 5 {
		t.Errorf("$ moved to col %d", e.Col)
	}
	_, e = runSession(t, "$0", []string{"abcde"})
	if e.Col != 0 {
		t.Errorf("0 moved to col %d", e.Col)
	}
}

func TestCursorClamping(t *testing.T) {
	_, e := runSession(t, "kkkhhhh", []string{"ab"})
	if e.Row != 0 || e.Col != 0 {
		t.Errorf("cursor = (%d,%d), want clamped to origin", e.Row, e.Col)
	}
	_, e = runSession(t, "jjjj$llll", []string{"ab", "cdef"})
	if e.Row != 1 || e.Col != 4 {
		t.Errorf("cursor = (%d,%d), want (1,4)", e.Row, e.Col)
	}
}

func TestWriteFile(t *testing.T) {
	w, e := runSession(t, "ihi\x1b:w\n:q\n", nil)
	k := w.OS.(*kernel.Kernel)
	data, ok := k.ReadFile(0, "doc.txt")
	if !ok {
		t.Fatal("doc.txt not written")
	}
	if string(data) != "hi\n" {
		t.Errorf("file = %q", data)
	}
	if e.Phase != phaseDone {
		t.Error("editor should have quit")
	}
	if !w.AllDone() {
		t.Error("world not done")
	}
}

func TestWriteQuit(t *testing.T) {
	w, _ := runSession(t, "iabc\x1b:wq\n", nil)
	k := w.OS.(*kernel.Kernel)
	if data, ok := k.ReadFile(0, "doc.txt"); !ok || string(data) != "abc\n" {
		t.Errorf("file = %q %v", data, ok)
	}
	if !w.AllDone() {
		t.Error("wq should finish the session")
	}
}

func TestRendersEveryKeystroke(t *testing.T) {
	w, _ := runSession(t, "ihi\x1b", nil)
	// 4 keystrokes -> 4 renders.
	if len(w.Outputs[0]) != 4 {
		t.Errorf("renders = %d, want 4: %v", len(w.Outputs[0]), w.Outputs[0])
	}
	if !strings.Contains(w.Outputs[0][2], "hi") {
		t.Errorf("render %q should show the buffer", w.Outputs[0][2])
	}
}

// TestScreenLineGolden pins the rendered screen line byte for byte — it is
// visible output, so every study's ledger and trace depend on it: the
// "[row,col nL] " status (with " +" while the buffer is dirty) and then the
// cursor line.
func TestScreenLineGolden(t *testing.T) {
	w, e := runSession(t, "ihi\x1b:w\n", []string{"first", "second line"})
	want := []string{
		"[0,0 2L] first",     // i
		"[0,1 2L +] hfirst",  // h
		"[0,2 2L +] hifirst", // i
		"[0,1 2L +] hifirst", // ESC
		"[0,1 2L +] hifirst", // :
		"[0,1 2L +] hifirst", // w
		"[0,1 2L] hifirst",   // \n: written, clean again
	}
	if got := w.Outputs[0]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("screen lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	e.Row, e.Col, e.Dirty = 1, 11, true
	if got, want := string(e.screenLine()), "[1,11 2L +] second line"; got != want {
		t.Errorf("screenLine() = %q, want %q", got, want)
	}
	e.Dirty = false
	if got, want := string(e.screenLine()), "[1,11 2L] second line"; got != want {
		t.Errorf("screenLine() = %q, want %q", got, want)
	}
}

func TestUnknownExCommandIgnored(t *testing.T) {
	w, e := runSession(t, ":zz\nix\x1b", nil)
	if got := e.Contents()[0]; got != "x" {
		t.Errorf("contents = %q", got)
	}
	_ = w
}

func TestStateRoundTrip(t *testing.T) {
	_, e := runSession(t, "ihello\nworld\x1b:w\n", nil)
	img, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var e2 Editor
	if err := e2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if strings.Join(e2.Contents(), "|") != strings.Join(e.Contents(), "|") {
		t.Error("contents diverged after round trip")
	}
	if e2.Row != e.Row || e2.Col != e.Col || len(e2.LineSums) != len(e.LineSums) || e2.Keystroke != e.Keystroke {
		t.Error("cursor/checksum state diverged")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var e Editor
	if err := e.UnmarshalState([]byte{1, 2, 3}); err == nil {
		t.Error("garbage state must fail to unmarshal")
	}
}

func TestThinkTimePacing(t *testing.T) {
	e := New("doc.txt", nil)
	e.ThinkTime = 100 * time.Millisecond
	w := sim.NewWorld(1, e)
	w.Procs[0].Ctx().Inputs = Script("ihi\x1b")
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Clock < 400*time.Millisecond {
		t.Errorf("clock = %v, want >= 400ms for 4 paced keystrokes", w.Clock)
	}
}

// TestSessionUnderRecoveryWithStops: an editing session survives stop
// failures under CPVS and produces the same final document as the
// failure-free run.
func TestSessionUnderRecoveryWithStops(t *testing.T) {
	script := "ihello world\x1b0x$a!\x1b:w\n:q\n"
	_, clean := runSession(t, script, nil)
	want := strings.Join(clean.Contents(), "|")

	for stopAt := 2; stopAt < 40; stopAt += 5 {
		e := New("doc.txt", nil)
		e.ThinkTime = 0
		w := sim.NewWorld(1, e)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = Script(script)
		d := dc.New(w, protocol.CPVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("stop@%d: session did not complete", stopAt)
			continue
		}
		if got := strings.Join(e.Contents(), "|"); got != want {
			t.Errorf("stop@%d: document %q, want %q", stopAt, got, want)
		}
	}
}

// TestFaultPointsReachable: arming each fault type leads to a crash (or a
// silently wrong run) rather than hanging.
type oneShotInjector struct {
	kind    sim.FaultKind
	site    string
	afterN  int
	seen    int
	firedAt int
}

func (f *oneShotInjector) At(p *sim.Proc, site string) sim.FaultKind {
	if f.firedAt > 0 || (f.site != "" && site != f.site) {
		return sim.NoFault
	}
	f.seen++
	if f.seen < f.afterN {
		return sim.NoFault
	}
	f.firedAt = p.Steps
	return f.kind
}

func TestFaultKindsCauseCrashOrCorruption(t *testing.T) {
	cases := []struct {
		kind sim.FaultKind
		site string
		n    int
	}{
		{sim.HeapBitFlip, "nvi.key", 3},     // latent until a checksum check
		{sim.DestReg, "nvi.insert", 5},      // column value lands in the row
		{sim.InitFault, "nvi.insert", 2},    // garbage cursor column
		{sim.DeleteBranch, "nvi.key", 3},    // clamp removed, cursor escapes
		{sim.DeleteInstr, "nvi.key", 3},     // shadow count diverges
		{sim.OffByOne, "nvi.insert", 2},     // insert past line end (may be silent)
		{sim.StackBitFlip, "nvi.insert", 2}, // index bits flipped in flight
	}
	crashed := 0
	for _, c := range cases {
		e := New("doc.txt", []string{"some text here", "and more", "third line"})
		e.ThinkTime = 0
		w := sim.NewWorld(9, e)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		// A long session with movement, inserts, deletes and two :w
		// commands so the periodic consistency checks run.
		script := strings.Repeat("jjkkll", 6) + "ix\x1b" + strings.Repeat("lix\x1b", 8) + ":w\n" + strings.Repeat("ddo zz\x1b", 2) + strings.Repeat("jkhl", 10) + ":w\n:q\n"
		w.Procs[0].Ctx().Inputs = Script(script)
		w.Faults = &oneShotInjector{kind: c.kind, site: c.site, afterN: c.n}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.Procs[0].Crashes > 0 {
			crashed++
		} else {
			t.Logf("%v at %s did not crash (fault absorbed)", c.kind, c.site)
		}
	}
	if crashed < 5 {
		t.Errorf("only %d/7 fault kinds crashed the editor; injection looks inert", crashed)
	}
}

func TestUndoInsert(t *testing.T) {
	_, e := runSession(t, "ihello\x1bu", []string{"base"})
	if got := e.Contents()[0]; got != "base" {
		t.Errorf("after undo = %q, want base", got)
	}
}

func TestUndoRedoToggle(t *testing.T) {
	_, e := runSession(t, "ix\x1buu", []string{"ab"})
	if got := e.Contents()[0]; got != "xab" {
		t.Errorf("u,u should redo: %q", got)
	}
}

func TestUndoDeleteLine(t *testing.T) {
	_, e := runSession(t, "ddu", []string{"one", "two"})
	got := e.Contents()
	if len(got) != 2 || got[0] != "one" {
		t.Errorf("undo of dd = %q", got)
	}
	if e.LineCount != 2 {
		t.Errorf("LineCount after undo = %d", e.LineCount)
	}
}

func TestUndoWithoutHistory(t *testing.T) {
	_, e := runSession(t, "u", []string{"x"})
	if got := e.Contents()[0]; got != "x" {
		t.Errorf("u with no history mutated buffer: %q", got)
	}
}

func TestUndoKeepsChecksumsConsistent(t *testing.T) {
	_, e := runSession(t, "ihello\x1bddu", []string{"a", "b"})
	if err := e.CheckConsistency(); err != nil {
		t.Errorf("consistency after undo: %v", err)
	}
}

func TestDeleteToEndOfLine(t *testing.T) {
	_, e := runSession(t, "llD", []string{"abcdef"})
	if got := e.Contents()[0]; got != "ab" {
		t.Errorf("D = %q, want ab", got)
	}
}

func TestWordMotion(t *testing.T) {
	_, e := runSession(t, "w", []string{"foo bar baz"})
	if e.Col != 4 {
		t.Errorf("w moved to col %d, want 4", e.Col)
	}
	_, e = runSession(t, "ww", []string{"foo bar baz"})
	if e.Col != 8 {
		t.Errorf("ww moved to col %d, want 8", e.Col)
	}
	_, e = runSession(t, "wwb", []string{"foo bar baz"})
	if e.Col != 4 {
		t.Errorf("wwb moved to col %d, want 4", e.Col)
	}
	// w past the last word of a line wraps to the next line.
	_, e = runSession(t, "ww", []string{"foo bar", "next"})
	if e.Row != 1 || e.Col != 0 {
		t.Errorf("ww = (%d,%d), want (1,0) after wrapping", e.Row, e.Col)
	}
}

func TestUndoStateSurvivesCheckpointRoundTrip(t *testing.T) {
	_, e := runSession(t, "ix\x1b", []string{"ab"})
	img, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var e2 Editor
	if err := e2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if !e2.UndoValid || len(e.undo) == 0 || string(e2.undo) != string(e.undo) {
		t.Error("undo snapshot lost in round trip")
	}
}

func TestEssentialStateRoundTrip(t *testing.T) {
	_, e := runSession(t, "ihello\x1bdd", []string{"a", "b"})
	img, err := e.MarshalEssential()
	if err != nil {
		t.Fatal(err)
	}
	var e2 Editor
	if err := e2.UnmarshalEssential(img); err != nil {
		t.Fatal(err)
	}
	if strings.Join(e2.Contents(), "|") != strings.Join(e.Contents(), "|") {
		t.Error("document diverged through essential round trip")
	}
	if err := e2.CheckConsistency(); err != nil {
		t.Errorf("recomputed derived state inconsistent: %v", err)
	}
	if e2.UndoValid {
		t.Error("undo history is derived: must be cleared")
	}
	// Essential images are smaller than full ones.
	full, _ := e.MarshalState()
	if len(img) >= len(full) {
		t.Errorf("essential %dB >= full %dB", len(img), len(full))
	}
}

// TestEssentialOnlyRecoversFromDerivedCorruption is the §2.6 experiment:
// with full-state commits, corrupt derived state is committed and recovery
// crash-loops on it; with essential-only commits the derived state is
// recomputed at rollback and the run completes.
func TestEssentialOnlyRecoversFromDerivedCorruption(t *testing.T) {
	run := func(essentialOnly bool) (*sim.World, *dc.DC) {
		e := New("doc.txt", []string{"alpha", "beta", "gamma"})
		e.ThinkTime = 0
		e.CheckEvery = 10
		w := sim.NewWorld(7, e)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = Script(strings.Repeat("jlkh", 20) + ":wq\n")
		d := dc.New(w, protocol.CPVS, stablestore.Rio)
		d.EssentialOnly = essentialOnly
		crashes := 0
		d.RecoveryHook = func(p *sim.Proc, reason string) {
			crashes++
			if crashes > 3 {
				d.DisableRecovery = true
			}
		}
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		// Poison a derived checksum after a few keystrokes, via a
		// wrapper injector that mutates the editor directly.
		poisoned := false
		w.Faults = faultFunc(func(p *sim.Proc, site string) sim.FaultKind {
			if !poisoned && site == "nvi.key" && e.Keystroke == 5 {
				poisoned = true
				e.LineSums[1] ^= 0xdeadbeef
			}
			return sim.NoFault
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w, d
	}
	// Full commits: the poisoned checksum is committed; every recovery
	// restores it and the next periodic check crashes again.
	wFull, _ := run(false)
	if wFull.AllDone() {
		t.Error("full-state commits should crash-loop on committed derived corruption")
	}
	// Essential commits: rollback recomputes the checksums; done.
	wEss, d := run(true)
	if !wEss.AllDone() {
		t.Error("essential-only commits should recover (derived state recomputed)")
	}
	if d.Stats.Recoveries == 0 {
		t.Error("the corruption should still have caused one crash")
	}
}

// faultFunc adapts a function to sim.FaultInjector.
type faultFunc func(p *sim.Proc, site string) sim.FaultKind

func (f faultFunc) At(p *sim.Proc, site string) sim.FaultKind { return f(p, site) }

func TestSubstituteCurrentLine(t *testing.T) {
	_, e := runSession(t, ":s/brown/red/\n", []string{"the brown fox", "brown again"})
	if got := e.Contents()[0]; got != "the red fox" {
		t.Errorf("line 0 = %q", got)
	}
	if got := e.Contents()[1]; got != "brown again" {
		t.Errorf("line 1 must be untouched: %q", got)
	}
	if e.LastSubst != "1 substitutions" {
		t.Errorf("LastSubst = %q", e.LastSubst)
	}
}

func TestSubstituteWholeBuffer(t *testing.T) {
	_, e := runSession(t, ":%s/a/X/\n", []string{"abc", "cba", "zzz"})
	got := e.Contents()
	if got[0] != "Xbc" || got[1] != "cbX" || got[2] != "zzz" {
		t.Errorf("contents = %q", got)
	}
	if e.LastSubst != "2 substitutions" {
		t.Errorf("LastSubst = %q", e.LastSubst)
	}
	// Checksums stay consistent.
	if err := e.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestSubstituteUndo(t *testing.T) {
	_, e := runSession(t, ":%s/x/y/\nu", []string{"xxx", "axb"})
	got := e.Contents()
	if got[0] != "xxx" || got[1] != "axb" {
		t.Errorf("undo of substitute = %q", got)
	}
}

func TestSubstituteMalformed(t *testing.T) {
	_, e := runSession(t, ":s/\n:s//y/\n", []string{"keep"})
	if e.Contents()[0] != "keep" {
		t.Error("malformed substitute must not mutate")
	}
}

func TestSigwinchForcesRedraw(t *testing.T) {
	e := New("doc.txt", []string{"content"})
	e.ThinkTime = time.Millisecond
	w := sim.NewWorld(1, e)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script("jjj")
	w.DeliverSignal(0, "SIGWINCH", 1500*time.Microsecond)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 keystroke renders + 1 signal-forced redraw.
	if got := len(w.Outputs[0]); got != 4 {
		t.Errorf("renders = %d, want 4: %v", got, w.Outputs[0])
	}
}

// TestWarmedRenderAllocatesOnlyItsOutput: once the scratch buffer has
// grown, a render allocates only its share of the world's byte arena and
// of the Outputs list — less than one object per render, where a string of
// its own cost one — and a file write step allocates nothing.
func TestWarmedRenderAllocatesOnlyItsOutput(t *testing.T) {
	w, e := runSession(t, "ihello\x1b", []string{"some", "lines of text"})
	w.RecordTrace = false
	ctx := w.Procs[0].Ctx()
	if n := testing.AllocsPerRun(100, func() { e.render(ctx) }); n != 0 {
		t.Errorf("a warmed render allocates %.0f times, want 0 (the byte arena amortizes its line)", n)
	}
	e.WriteStep = 0
	e.writeFileStep(ctx) // open
	if n := testing.AllocsPerRun(100, func() {
		e.WriteStep = 2
		if e.writeFileStep(ctx) != sim.Ready || e.WriteStep != 3 {
			t.Fatal("the write step did not write a line")
		}
	}); n != 0 {
		t.Errorf("a warmed file write step allocates %.0f times, want 0", n)
	}
}

// TestForksRenderIntoTheirOwnScratch: two forks of one template render and
// write concurrently; neither shares the template's scratch buffer (go test
// -race reports it if they do), and both print what an unforked run prints.
func TestForksRenderIntoTheirOwnScratch(t *testing.T) {
	const keys = "ihello\x1b:w\nlllxx:w\n"
	contents := []string{"some", "lines", "of text"}
	want, _ := runSession(t, keys, contents)
	e := New("doc.txt", contents)
	e.ThinkTime = 0
	w := sim.NewWorld(1, e)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script(keys)
	stepToKeystroke(t, w, 3)
	if e.scratch == nil {
		t.Fatal("the template never rendered")
	}
	forks := make([]*sim.World, 2)
	for i := range forks {
		fw, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = fw
	}
	errs := make(chan error, len(forks))
	for _, fw := range forks {
		go func() { errs <- fw.Run() }()
	}
	for range forks {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, fw := range forks {
		if got := strings.Join(fw.Outputs[0], "\n"); got != strings.Join(want.Outputs[0], "\n") {
			t.Errorf("fork %d printed\n%s\nwant\n%s", i, got, strings.Join(want.Outputs[0], "\n"))
		}
	}
}
