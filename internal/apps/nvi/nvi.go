// Package nvi reimplements the paper's first workload: nvi, the Berkeley
// re-implementation of the vi text editor. It is a real modal editor over a
// line buffer — command and insert modes, cursor movement, character and
// line deletion, ex commands (:w, :q) that write the file through the
// simulated kernel — driven by a scripted keystroke session (fixed
// non-deterministic user input).
//
// The editor follows the simulator's one-event-per-step contract: each
// keystroke costs three steps (read input; apply, which is pure
// computation; render, a visible event), and :w adds one step per syscall.
//
// Fault instrumentation: the seven Table 1 fault types corrupt the editor
// at its fault points with realistic consequences — a heap bit flip lands
// in a buffer line and stays latent until a periodic checksum check, a
// deleted branch skips the cursor clamp, an off-by-one inserts past the
// line end, and so on. Detection happens through the editor's own
// consistency checks or a runtime panic, both of which the simulator turns
// into crash events.
package nvi

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/kernel"
	"failtrans/internal/sim"
)

// Phases of the keystroke cycle.
const (
	phaseRead = iota
	phaseApply
	phaseRender
	phaseWrite // emits one syscall per step while writing the file
	phaseDone
)

// DefaultCheckEvery is how often (in keystrokes) the editor runs its full
// consistency check, in addition to every :w. Checking more often shortens
// dangerous paths (the paper's §2.6 mitigation) at some CPU cost.
const DefaultCheckEvery = 50

// Editor is the nvi application state.
type Editor struct {
	Lines [][]byte
	Row   int
	Col   int
	// Mode: 0 command, 1 insert, 2 ex (after ':').
	Mode  int
	ExBuf []byte
	// PendingOp holds the first 'd' of a dd.
	PendingOp byte
	// Undo state: classic vi's single-level undo. undo/UndoRow/UndoCol
	// snapshot the buffer before the last mutating command; 'u' swaps it
	// with the current buffer (so a second 'u' redoes). The snapshot has
	// one writer and is read back only by 'u', so it is held as its section
	// of the checkpoint image — Lines then LineSums in wire form,
	// [n][len,bytes]…[n][sum]… — and a commit appends it with one copy
	// instead of re-encoding it line by line; nil stands for the empty
	// snapshot. A fork reads the template's section until snapshotUndo,
	// swapUndo or UnmarshalState replaces it: those write undoBuf, the
	// editor's own storage, which Fork never hands on, and point undo at it.
	UndoValid bool
	//failtrans:cowshared snapshotUndo
	undo     []byte
	undoBuf  []byte
	UndoRow  int
	UndoCol  int
	Filename string
	Dirty    bool

	// LineCount shadows len(Lines); the delete-instruction fault skips
	// its update and the consistency check compares them.
	LineCount int
	// LineSums holds a maintained checksum per buffer line, updated only
	// by legitimate edits of that line; heap corruption diverges from
	// its line's sum until a consistency check notices.
	LineSums []uint32

	Phase     int
	Key       byte
	Keystroke int

	// writeQueue holds the remaining syscalls of an in-progress :w.
	WriteStep int
	WriteFD   int64

	// Config (constant over a run, still marshaled for simplicity).
	ThinkTime  time.Duration
	KeyCost    time.Duration
	UseSyscall bool // route screen updates through a kernel write
	// RecoveryFile enables nvi's per-keystroke recovery-file append (the
	// real editor's vi.recover behavior), which gives the process its
	// characteristic high syscall rate.
	RecoveryFile bool
	RecFD        int64
	// CheckEvery sets the periodic consistency-check interval in
	// keystrokes (0 disables periodic checks; :w always checks).
	CheckEvery int
	// LastSubst reports the most recent :s command's result (shown by
	// the next render's status line region; informational).
	LastSubst string

	faultSalt uint64
	skipClamp bool
	// pendingFlip defers a heap bit flip to after the checksum
	// maintenance in the same apply step, so the corruption is latent.
	// It is never marshaled: set and consumed within one step, except that
	// an ex command's early return from apply leaves it pending until the
	// next keystroke's apply (SameState compares it).
	pendingFlip bool

	// frozen marks a sealed fork template (sim.Freezer): forks alias its
	// undo section, so it must never be stepped again and Step panics if it
	// is.
	frozen bool

	// scratch is where the screen line and every file write are built: the
	// output string copies it and the kernel copies what it keeps during
	// the call. Never marshaled, and a fork starts without one.
	scratch []byte
}

// New returns an editor whose session will edit `filename` with the given
// initial contents.
func New(filename string, contents []string) *Editor {
	e := &Editor{Filename: filename, ThinkTime: 100 * time.Millisecond, KeyCost: 200 * time.Microsecond, CheckEvery: DefaultCheckEvery}
	for _, l := range contents {
		e.Lines = append(e.Lines, []byte(l))
	}
	if len(e.Lines) == 0 {
		e.Lines = [][]byte{nil}
	}
	e.LineCount = len(e.Lines)
	e.LineSums = make([]uint32, len(e.Lines))
	for i := range e.Lines {
		e.setLineSum(i)
	}
	return e
}

func (e *Editor) setLineSum(i int) {
	e.LineSums[i] = apputil.Checksum(e.Lines[i])
}

// Freeze implements sim.Freezer: it seals the editor as an immutable fork
// template. A frozen editor must never be stepped again; its undo section is
// handed to forks read-only. Idempotent, and a second call writes nothing,
// so a sealed editor may be forked from many goroutines at once.
func (e *Editor) Freeze() {
	if !e.frozen {
		e.frozen = true
	}
}

// Fork implements sim.Forker: it seals the editor with Freeze and returns a
// fork that owns a copy of the line buffer and its checksums (forkLines) and
// shares the undo section for as long as the fork does not replace it. A
// sealed receiver is only read.
func (e *Editor) Fork() (sim.Program, error) {
	e.Freeze()
	ne := *e
	ne.Lines = forkLines(e.Lines)
	ne.LineSums = append([]uint32(nil), e.LineSums...)
	ne.ExBuf = append([]byte(nil), e.ExBuf...)
	ne.undoBuf = nil
	ne.scratch = nil
	ne.frozen = false
	return &ne, nil
}

// SameState implements sim.StateComparer for the one piece of editor state
// the checkpoint image omits: a heap flip the keystroke fault site scheduled,
// which an ex command's early return from apply leaves pending past its step.
// World.SameState compares everything else through the image bytes.
func (e *Editor) SameState(template any, _ *sim.Offsets) bool {
	t, ok := template.(*Editor)
	return ok && e.pendingFlip == t.pendingFlip
}

// forkLines deep-copies a line buffer (line bytes are edited in place).
// All lines are packed into one arena allocation — two allocations per
// fork instead of one per line. Each line's capacity is clamped to its
// length, so growing a line reallocates it privately instead of
// scribbling its arena neighbor; in-place edits stay within the line's
// own range.
func forkLines(lines [][]byte) [][]byte {
	if lines == nil {
		return nil
	}
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	arena := make([]byte, 0, total)
	out := make([][]byte, len(lines))
	for i, l := range lines {
		if len(l) == 0 {
			continue // mirror the per-line copy, which yields nil here
		}
		start := len(arena)
		arena = append(arena, l...)
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// Script builds the keystroke input script for a session: sequences of vi
// commands as individual key bytes.
func Script(keys string) [][]byte {
	out := make([][]byte, 0, len(keys))
	for i := 0; i < len(keys); i++ {
		out = append(out, []byte{keys[i]})
	}
	return out
}

// Name implements sim.Program.
func (e *Editor) Name() string { return "nvi" }

// Init implements sim.Program.
func (e *Editor) Init(ctx *sim.Ctx) error { return nil }

// CheckConsistency implements sim.Checker: the editor's full integrity
// check (shadow line count, cursor bounds, per-line checksums).
func (e *Editor) CheckConsistency() error {
	if e.LineCount != len(e.Lines) {
		return fmt.Errorf("nvi: line count %d != %d", e.LineCount, len(e.Lines))
	}
	if e.Row < 0 || e.Row >= len(e.Lines) || e.Col < 0 || e.Col > len(e.Lines[e.Row]) {
		return fmt.Errorf("nvi: cursor (%d,%d) out of bounds", e.Row, e.Col)
	}
	if len(e.LineSums) != len(e.Lines) {
		return fmt.Errorf("nvi: %d line sums for %d lines", len(e.LineSums), len(e.Lines))
	}
	for i, l := range e.Lines {
		if apputil.Checksum(l) != e.LineSums[i] {
			return fmt.Errorf("nvi: line %d checksum mismatch", i)
		}
	}
	return nil
}

// check runs the consistency check, crashing the process on a failure.
func (e *Editor) check(ctx *sim.Ctx) bool {
	if err := e.CheckConsistency(); err != nil {
		ctx.Crash(err.Error())
		return false
	}
	return true
}

// clamp keeps the cursor inside the buffer (unless the deleted-branch fault
// removed it).
func (e *Editor) clamp() {
	if e.skipClamp {
		return
	}
	if e.Row < 0 {
		e.Row = 0
	}
	if e.Row >= len(e.Lines) {
		e.Row = len(e.Lines) - 1
	}
	if e.Col < 0 {
		e.Col = 0
	}
	if e.Col > len(e.Lines[e.Row]) {
		e.Col = len(e.Lines[e.Row])
	}
}

// Step implements sim.Program.
func (e *Editor) Step(ctx *sim.Ctx) sim.Status {
	if e.frozen {
		panic("nvi: step of a frozen template editor")
	}
	switch e.Phase {
	case phaseRead:
		// Asynchronous signals are handled between keystrokes, as a
		// real editor's event loop does: SIGWINCH forces a redraw.
		if sig, ok := ctx.TakeSignal(); ok {
			if sig == "SIGWINCH" {
				e.Phase = phaseRender
			}
			return sim.Ready
		}
		in, ok := ctx.Input()
		if !ok {
			e.Phase = phaseDone
			return sim.Ready
		}
		e.Key = in[0]
		e.Keystroke++
		e.Phase = phaseApply
		if e.ThinkTime > 0 {
			ctx.Sleep(e.ThinkTime)
			return sim.Sleeping
		}
		return sim.Ready

	case phaseApply:
		ctx.Compute(e.KeyCost)
		e.injectAtKey(ctx)
		e.apply(ctx)
		if e.RecoveryFile {
			e.appendRecoveryRecord(ctx)
		}
		if e.CheckEvery > 0 && e.Keystroke%e.CheckEvery == 0 {
			ctx.Compute(time.Duration(len(e.Lines)) * time.Microsecond)
			e.check(ctx) // a failed check crashes via ctx.Crash
		}
		return sim.Ready

	case phaseRender:
		e.render(ctx)
		e.Phase = phaseRead
		return sim.Ready

	case phaseWrite:
		return e.writeFileStep(ctx)

	default:
		return sim.Done
	}
}

// screenLine builds the screen update, status line plus the cursor line, in
// the scratch buffer; it is valid until the scratch buffer's next use. It
// trusts the cursor: a corrupted row panics here.
//
//failtrans:hotpath
func (e *Editor) screenLine() []byte {
	line := e.Lines[e.Row]
	b := e.scratch[:0]
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(e.Row), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Col), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(e.Lines)), 10)
	b = append(b, 'L')
	if e.Dirty {
		b = append(b, " +"...)
	}
	b = append(b, "] "...)
	b = append(b, line...)
	e.scratch = b
	return b
}

// scratchFD starts the scratch buffer with fd as a syscall word: a
// syscall's fd argument is scratch[:8], and its data is appended behind it.
func (e *Editor) scratchFD(fd int64) {
	e.scratch = kernel.AppendI64(e.scratch[:0], fd)
}

// render emits the screen update. A corrupted row crashes in screenLine,
// before the visible event (and before any commit-prior-to-visible).
//
//failtrans:hotpath
func (e *Editor) render(ctx *sim.Ctx) {
	screen := e.screenLine()
	if e.UseSyscall {
		if _, err := ctx.Syscall("write", kernel.I64(1), screen); err != nil {
			ctx.Crash(err.Error())
			return
		}
	} else {
		ctx.OutputBytes(screen)
	}
}

// apply executes one keystroke against the buffer. Pure computation — the
// surrounding steps carry the events.
func (e *Editor) apply(ctx *sim.Ctx) {
	e.Phase = phaseRender
	key := e.Key
	switch e.Mode {
	case 1: // insert mode
		switch key {
		case 0x1b: // ESC
			e.Mode = 0
			if e.Col > 0 {
				e.Col--
			}
		case '\n':
			rest := append([]byte(nil), e.Lines[e.Row][e.Col:]...)
			e.Lines[e.Row] = e.Lines[e.Row][:e.Col]
			e.Lines = append(e.Lines[:e.Row+1], append([][]byte{rest}, e.Lines[e.Row+1:]...)...)
			e.LineSums = append(e.LineSums[:e.Row+1], append([]uint32{0}, e.LineSums[e.Row+1:]...)...)
			e.setLineSum(e.Row)
			e.setLineSum(e.Row + 1)
			e.Row++
			e.Col = 0
			e.LineCount++
			e.Dirty = true
		default:
			e.insertChar(ctx, key)
		}
	case 2: // ex mode
		if key == '\n' {
			e.execEx(ctx)
			return
		}
		e.ExBuf = append(e.ExBuf, key)
	default: // command mode
		switch key {
		case 'i':
			e.snapshotUndo()
			e.Mode = 1
		case 'a':
			e.snapshotUndo()
			e.Mode = 1
			if e.Col < len(e.Lines[e.Row]) {
				e.Col++
			}
		case 'o':
			e.snapshotUndo()
			e.Lines = append(e.Lines[:e.Row+1], append([][]byte{nil}, e.Lines[e.Row+1:]...)...)
			e.LineSums = append(e.LineSums[:e.Row+1], append([]uint32{apputil.Checksum(nil)}, e.LineSums[e.Row+1:]...)...)
			e.Row++
			e.Col = 0
			e.LineCount++
			e.Mode = 1
			e.Dirty = true
		case 'h':
			e.Col--
			e.clamp()
		case 'l':
			e.Col++
			e.clamp()
		case 'j':
			e.Row++
			e.clamp()
		case 'k':
			e.Row--
			e.clamp()
		case '0':
			e.Col = 0
		case '$':
			e.Col = len(e.Lines[e.Row])
		case 'x':
			e.snapshotUndo()
			e.deleteChar(ctx)
		case 'D':
			e.snapshotUndo()
			e.Lines[e.Row] = e.Lines[e.Row][:e.Col]
			e.setLineSum(e.Row)
			e.clamp()
			e.Dirty = true
		case 'w':
			e.wordForward()
		case 'b':
			e.wordBack()
		case 'u':
			e.swapUndo()
		case 'd':
			if e.PendingOp == 'd' {
				e.PendingOp = 0
				e.snapshotUndo()
				e.deleteLine(ctx)
			} else {
				e.PendingOp = 'd'
			}
		case ':':
			e.Mode = 2
			e.ExBuf = e.ExBuf[:0]
		}
	}
	if e.pendingFlip {
		e.pendingFlip = false
		e.flipHeapBitNow()
	}
}

// insertChar inserts key at the cursor.
func (e *Editor) insertChar(ctx *sim.Ctx, key byte) {
	col := e.Col
	switch ctx.Fault("nvi.insert") {
	case sim.OffByOne:
		col = e.Col + 1 // insert one past the cursor: may overrun the line
	case sim.HeapBitFlip:
		e.flipHeapBit()
	case sim.DestReg:
		e.Row = col // computed column lands in the row register
	case sim.InitFault:
		col = 0xdead // uninitialized index
	case sim.DeleteBranch:
		e.skipClamp = true
	case sim.DeleteInstr:
		// Skip the buffer update entirely: screen and file diverge
		// from the maintained checksum... the checksum is recomputed
		// from the buffer afterwards, so instead skip the checksum
		// maintenance by corrupting the shadow count.
		e.LineCount++
		return
	case sim.StackBitFlip:
		col ^= 1 << (e.salt() % 20) // a bit of the index flips in flight
	}
	e.Lines[e.Row] = slices.Insert(e.Lines[e.Row], col, key)
	e.setLineSum(e.Row)
	e.Col = col + 1
	e.Dirty = true
}

// deleteChar implements 'x'.
func (e *Editor) deleteChar(ctx *sim.Ctx) {
	line := e.Lines[e.Row]
	if len(line) == 0 {
		return
	}
	col := e.Col
	if ctx.Fault("nvi.delete") == sim.OffByOne {
		col++
	}
	if col >= len(line) && !e.skipClamp {
		col = len(line) - 1
	}
	e.Lines[e.Row] = append(line[:col], line[col+1:]...)
	e.setLineSum(e.Row)
	e.clamp()
	e.Dirty = true
}

// deleteLine implements 'dd'.
func (e *Editor) deleteLine(ctx *sim.Ctx) {
	kind := ctx.Fault("nvi.deleteline")
	e.Lines = append(e.Lines[:e.Row], e.Lines[e.Row+1:]...)
	e.LineSums = append(e.LineSums[:e.Row], e.LineSums[e.Row+1:]...)
	if len(e.Lines) == 0 {
		e.Lines = [][]byte{nil}
		e.LineSums = []uint32{apputil.Checksum(nil)}
	}
	if kind != sim.DeleteInstr {
		e.LineCount = len(e.Lines)
	}
	e.clamp()
	e.Dirty = true
}

// execEx runs an ex command from ExBuf.
func (e *Editor) execEx(ctx *sim.Ctx) {
	cmd := string(e.ExBuf)
	e.ExBuf = e.ExBuf[:0]
	e.Mode = 0
	switch cmd {
	case "w", "wq":
		if !e.check(ctx) {
			return
		}
		e.WriteStep = 0
		e.Phase = phaseWrite
		if cmd == "wq" {
			e.PendingOp = 'q'
		}
	case "q", "q!":
		e.Phase = phaseDone
	default:
		if strings.HasPrefix(cmd, "s/") || strings.HasPrefix(cmd, "%s/") {
			e.substitute(ctx, cmd)
			return
		}
		e.Phase = phaseRender // unknown command: beep via render
	}
}

// substitute implements :s/old/new/ (current line) and :%s/old/new/ (whole
// buffer), first occurrence per line, as classic vi does without the g
// flag.
func (e *Editor) substitute(ctx *sim.Ctx, cmd string) {
	e.Phase = phaseRender
	body := strings.TrimPrefix(cmd, "%")
	parts := strings.Split(body, "/")
	// "s/old/new" or "s/old/new/".
	if len(parts) < 3 || parts[0] != "s" || parts[1] == "" {
		e.LastSubst = "?substitute " + cmd
		return
	}
	old, repl := parts[1], parts[2]
	rows := []int{e.Row}
	if strings.HasPrefix(cmd, "%") {
		rows = rows[:0]
		for i := range e.Lines {
			rows = append(rows, i)
		}
	}
	e.snapshotUndo()
	changed := 0
	for _, r := range rows {
		line := string(e.Lines[r])
		if idx := strings.Index(line, old); idx >= 0 {
			e.Lines[r] = []byte(line[:idx] + repl + line[idx+len(old):])
			e.setLineSum(r)
			changed++
		}
	}
	if changed > 0 {
		e.Dirty = true
	}
	e.LastSubst = fmt.Sprintf("%d substitutions", changed)
	e.clamp()
}

// writeFileStep emits one syscall per step: open, then one write per line,
// then truncate+close combined with a final timestamp read. Every argument
// is built in the scratch buffer, so a step allocates nothing.
//
//failtrans:hotpath
func (e *Editor) writeFileStep(ctx *sim.Ctx) sim.Status {
	switch {
	case e.WriteStep == 0:
		e.scratch = append(e.scratch[:0], 1) // create
		e.scratch = append(e.scratch, e.Filename...)
		ret, err := ctx.Syscall("open", e.scratch[1:], e.scratch[:1])
		if err != nil {
			ctx.Crash("nvi: " + err.Error())
			return sim.Crashed
		}
		e.WriteFD = kernel.Int(ret[0])
		e.WriteStep = 1
	case e.WriteStep <= len(e.Lines):
		e.scratchFD(e.WriteFD)
		e.scratch = append(e.scratch, e.Lines[e.WriteStep-1]...)
		e.scratch = append(e.scratch, '\n')
		if _, err := ctx.Syscall("write", e.scratch[:8], e.scratch[8:]); err != nil {
			ctx.Crash("nvi: " + err.Error())
			return sim.Crashed
		}
		e.WriteStep++
	default:
		e.scratchFD(e.WriteFD)
		if _, err := ctx.Syscall("close", e.scratch); err != nil {
			ctx.Crash("nvi: " + err.Error())
			return sim.Crashed
		}
		e.Dirty = false
		e.WriteStep = 0
		if e.PendingOp == 'q' {
			e.Phase = phaseDone
		} else {
			e.Phase = phaseRender
		}
	}
	return sim.Ready
}

// appendRecoveryRecord writes this keystroke to the recovery file —
// deterministic syscalls, so they batch within the apply step.
func (e *Editor) appendRecoveryRecord(ctx *sim.Ctx) {
	if e.RecFD == 0 {
		ret, err := ctx.Syscall("open", []byte(e.Filename+".rec"), []byte{1})
		if err != nil {
			ctx.Crash("nvi: " + err.Error())
			return
		}
		e.RecFD = kernel.Int(ret[0])
	}
	e.scratchFD(e.RecFD)
	e.scratch = append(e.scratch, e.Key, byte(e.Row), byte(e.Col))
	if _, err := ctx.Syscall("write", e.scratch[:8], e.scratch[8:]); err != nil {
		ctx.Crash("nvi: " + err.Error())
	}
}

// snapshotUndo saves the buffer for vi's single-level undo, encoding it over
// the editor's previous snapshot (no allocation once undoBuf has reached the
// document's size).
func (e *Editor) snapshotUndo() {
	e.encodeUndo()
	e.UndoRow, e.UndoCol = e.Row, e.Col
	e.UndoValid = true
}

// encodeUndo makes the working buffer the undo snapshot. It writes only
// undoBuf, so a section still shared with a frozen template is left as it is.
func (e *Editor) encodeUndo() {
	need := 16 + 8*len(e.Lines) + 8*len(e.LineSums)
	for _, l := range e.Lines {
		need += len(l)
	}
	if cap(e.undoBuf) < need {
		e.undoBuf = make([]byte, 0, need+need/8+256)
	}
	enc := apputil.Enc{B: e.undoBuf[:0]}
	appendLines(&enc, e.Lines)
	enc.U32s(e.LineSums)
	e.undoBuf = enc.B
	e.undo = e.undoBuf
}

// appendLines encodes a line buffer as [n][len,bytes]….
func appendLines(enc *apputil.Enc, lines [][]byte) {
	enc.Int(len(lines))
	for _, l := range lines {
		enc.Bytes(l)
	}
}

// undoBuffer decodes the undo section into a private line buffer packed as
// forkLines packs one. The section is the editor's own encoding or one
// UnmarshalState has bounds-walked, so its counts are consistent with its
// length.
func (e *Editor) undoBuffer() ([][]byte, []uint32) {
	d := apputil.Dec{B: e.undo}
	lines := make([][]byte, d.Count(8))
	arena := make([]byte, 0, len(e.undo))
	for i := range lines {
		l := d.BytesInto(arena[len(arena):])
		if len(l) == 0 {
			continue
		}
		arena = arena[:len(arena)+len(l)]
		lines[i] = l[:len(l):len(l)]
	}
	return lines, decSums(&d, nil, d.Count(8))
}

// swapUndo implements 'u': it swaps the buffer with the undo snapshot (a
// second 'u' redoes, as in classic vi).
func (e *Editor) swapUndo() {
	if !e.UndoValid {
		return
	}
	lines, sums := e.undoBuffer() // copies out of undo before encodeUndo overwrites it
	e.encodeUndo()
	e.Lines, e.LineSums = lines, sums
	e.Row, e.UndoRow = e.UndoRow, e.Row
	e.Col, e.UndoCol = e.UndoCol, e.Col
	e.LineCount = len(e.Lines)
	e.clamp()
	e.Dirty = true
}

// wordForward implements 'w': move to the start of the next word,
// continuing onto following lines.
func (e *Editor) wordForward() {
	line := e.Lines[e.Row]
	col := e.Col
	for col < len(line) && line[col] != ' ' {
		col++
	}
	for col < len(line) && line[col] == ' ' {
		col++
	}
	if col >= len(line) && e.Row+1 < len(e.Lines) {
		e.Row++
		e.Col = 0
		return
	}
	e.Col = col
	e.clamp()
}

// wordBack implements 'b': move to the start of the previous word.
func (e *Editor) wordBack() {
	line := e.Lines[e.Row]
	col := e.Col
	for col > 0 && (col > len(line) || col == len(line) || line[col-1] == ' ') {
		col--
	}
	for col > 0 && line[col-1] != ' ' {
		col--
	}
	if col == e.Col && e.Row > 0 && col == 0 {
		e.Row--
		e.Col = len(e.Lines[e.Row])
		return
	}
	e.Col = col
	e.clamp()
}

// injectAtKey applies the short-lived (stack) corruption at keystroke
// dispatch.
func (e *Editor) injectAtKey(ctx *sim.Ctx) {
	switch ctx.Fault("nvi.key") {
	case sim.StackBitFlip:
		// Corrupt the key byte in flight; usually dispatches a wrong
		// or invalid command.
		k := []byte{e.Key}
		apputil.FlipBit(k, e.salt())
		e.Key = k[0]
	case sim.InitFault:
		// The cursor column is used before initialization.
		e.Col = 1 << 20
	case sim.DestReg:
		e.Row, e.Col = e.Col, e.Row
	case sim.DeleteBranch:
		e.skipClamp = true
	case sim.HeapBitFlip:
		e.flipHeapBit()
	case sim.OffByOne:
		e.Col++
	case sim.DeleteInstr:
		e.LineCount--
	}
}

// flipHeapBit schedules a corruption of a pseudo-random buffer line; it is
// applied after the step's checksum maintenance so it stays latent until a
// consistency check notices it.
func (e *Editor) flipHeapBit() { e.pendingFlip = true }

func (e *Editor) flipHeapBitNow() {
	if len(e.Lines) == 0 {
		return
	}
	s := e.salt()
	line := e.Lines[int(s)%len(e.Lines)]
	apputil.FlipBit(line, s>>8)
}

func (e *Editor) salt() uint64 {
	e.faultSalt = e.faultSalt*6364136223846793005 + 1442695040888963407
	return e.faultSalt
}

// Done reports whether the session has ended (:q/:wq or script
// exhaustion).
func (e *Editor) Done() bool { return e.Phase == phaseDone }

// Contents returns the document as strings (for assertions).
func (e *Editor) Contents() []string {
	out := make([]string, len(e.Lines))
	for i, l := range e.Lines {
		out[i] = string(l)
	}
	return out
}

// MarshalState implements sim.Program.
func (e *Editor) MarshalState() ([]byte, error) { return e.AppendState(nil) }

// AppendState implements sim.StateAppender: the commit path encodes the
// editor straight into the checkpoint image.
func (e *Editor) AppendState(dst []byte) ([]byte, error) {
	enc := apputil.Enc{B: dst}
	appendLines(&enc, e.Lines)
	enc.Int(e.Row)
	enc.Int(e.Col)
	enc.Int(e.Mode)
	enc.Bytes(e.ExBuf)
	enc.B = append(enc.B, e.PendingOp)
	enc.Bool(e.UndoValid)
	if e.undo == nil {
		enc.Int(0) // no lines
		enc.Int(0) // no sums
	} else {
		enc.B = append(enc.B, e.undo...)
	}
	enc.Int(e.UndoRow)
	enc.Int(e.UndoCol)
	enc.Str(e.Filename)
	enc.Bool(e.Dirty)
	enc.Int(e.LineCount)
	enc.U32s(e.LineSums)
	enc.Int(e.Phase)
	enc.B = append(enc.B, e.Key)
	enc.Int(e.Keystroke)
	enc.Int(e.WriteStep)
	enc.I64(e.WriteFD)
	enc.I64(int64(e.ThinkTime))
	enc.I64(int64(e.KeyCost))
	enc.Bool(e.UseSyscall)
	enc.Bool(e.RecoveryFile)
	enc.I64(e.RecFD)
	enc.Int(e.CheckEvery)
	enc.Str(e.LastSubst)
	enc.I64(int64(e.faultSalt))
	enc.Bool(e.skipClamp)
	return enc.B, nil
}

// decLines decodes n length-prefixed lines, reusing old's header array and
// per-line buffers. Safe because the image being decoded is separate memory
// from any line buffer.
func decLines(d *apputil.Dec, old [][]byte, n int) [][]byte {
	lines := old[:0]
	if cap(lines) < n {
		lines = make([][]byte, 0, n)
	}
	for i := 0; i < n; i++ {
		var buf []byte
		if i < len(old) {
			buf = old[i]
		}
		lines = append(lines, d.BytesInto(buf))
	}
	return lines
}

// decSums decodes n checksum words, reusing old's backing array.
func decSums(d *apputil.Dec, old []uint32, n int) []uint32 {
	sums := old[:0]
	if cap(sums) < n {
		sums = make([]uint32, 0, n)
	}
	for i := 0; i < n; i++ {
		sums = append(sums, uint32(d.I64()))
	}
	return sums
}

// UnmarshalState implements sim.Program. It is allocation-free in the steady
// state: line buffers, checksum arrays and rarely-changing strings are decoded
// back into the editor's existing storage and the undo section is copied over
// the previous one, so the rollback path (restore every crash) costs no
// garbage once the editor has reached its working size.
func (e *Editor) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	e.Lines = decLines(&d, e.Lines, d.Count(8))
	e.Row = d.Int()
	e.Col = d.Int()
	e.Mode = d.Int()
	e.ExBuf = d.BytesInto(e.ExBuf)
	e.PendingOp = d.Byte()
	e.UndoValid = d.Bool()
	// The undo section stays in wire form: walk it for its extent (every
	// count and length checked against the image) and keep the bytes.
	undoAt := d.Pos()
	for i := d.Count(8); i > 0 && d.Err == nil; i-- {
		d.Skip(d.Int())
	}
	d.Skip(8 * d.Count(8))
	if d.Err != nil {
		return d.Err
	}
	e.undoBuf = append(e.undoBuf[:0], data[undoAt:d.Pos()]...)
	e.undo = e.undoBuf
	e.UndoRow = d.Int()
	e.UndoCol = d.Int()
	e.Filename = d.StrReuse(e.Filename)
	e.Dirty = d.Bool()
	e.LineCount = d.Int()
	e.LineSums = decSums(&d, e.LineSums, d.Count(8))
	e.Phase = d.Int()
	e.Key = d.Byte()
	e.Keystroke = d.Int()
	e.WriteStep = d.Int()
	e.WriteFD = d.I64()
	e.ThinkTime = time.Duration(d.I64())
	e.KeyCost = time.Duration(d.I64())
	e.UseSyscall = d.Bool()
	e.RecoveryFile = d.Bool()
	e.RecFD = d.I64()
	e.CheckEvery = d.Int()
	e.LastSubst = d.StrReuse(e.LastSubst)
	e.faultSalt = uint64(d.I64())
	e.skipClamp = d.Bool()
	return d.Err
}

// MarshalEssential implements sim.PartialState (§2.6: "reduce the
// comprehensiveness of the state saved"). Only the document, cursor, and
// session control state are preserved; the per-line checksums and the undo
// snapshot are derived and will be recomputed during recovery — so
// corruption in them is never committed, and undo history is the (small)
// price of a failure.
func (e *Editor) MarshalEssential() ([]byte, error) {
	var enc apputil.Enc
	appendLines(&enc, e.Lines)
	enc.Int(e.Row)
	enc.Int(e.Col)
	enc.Int(e.Mode)
	enc.Bytes(e.ExBuf)
	enc.B = append(enc.B, e.PendingOp)
	enc.Str(e.Filename)
	enc.Bool(e.Dirty)
	enc.Int(e.Phase)
	enc.B = append(enc.B, e.Key)
	enc.Int(e.Keystroke)
	enc.Int(e.WriteStep)
	enc.I64(e.WriteFD)
	enc.I64(int64(e.ThinkTime))
	enc.I64(int64(e.KeyCost))
	enc.Bool(e.UseSyscall)
	enc.Bool(e.RecoveryFile)
	enc.I64(e.RecFD)
	enc.Int(e.CheckEvery)
	enc.Str(e.LastSubst)
	enc.I64(int64(e.faultSalt))
	return enc.B, nil
}

// UnmarshalEssential restores the essential state and recomputes everything
// derived: the shadow line count, the per-line checksums, and a cleared
// undo history.
func (e *Editor) UnmarshalEssential(data []byte) error {
	d := apputil.Dec{B: data}
	n := d.Count(8)
	lines := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		lines = append(lines, d.Bytes())
	}
	e.Lines = lines
	e.Row = d.Int()
	e.Col = d.Int()
	e.Mode = d.Int()
	e.ExBuf = d.Bytes()
	e.PendingOp = d.Byte()
	e.Filename = d.Str()
	e.Dirty = d.Bool()
	e.Phase = d.Int()
	e.Key = d.Byte()
	e.Keystroke = d.Int()
	e.WriteStep = d.Int()
	e.WriteFD = d.I64()
	e.ThinkTime = time.Duration(d.I64())
	e.KeyCost = time.Duration(d.I64())
	e.UseSyscall = d.Bool()
	e.RecoveryFile = d.Bool()
	e.RecFD = d.I64()
	e.CheckEvery = d.Int()
	e.LastSubst = d.Str()
	e.faultSalt = uint64(d.I64())
	if d.Err != nil {
		return d.Err
	}
	// Recompute derived state from the essentials.
	e.LineCount = len(e.Lines)
	e.LineSums = make([]uint32, len(e.Lines))
	for i := range e.Lines {
		e.setLineSum(i)
	}
	e.UndoValid = false
	e.undo = nil
	e.skipClamp = false
	e.pendingFlip = false
	return nil
}
