package sim

import (
	"bytes"
	"slices"
	"sync"
	"time"
)

// This file is the read-only half of the snapshot engine. World.SameState
// decides whether a running world has reached the state a sealed template
// world was sealed in, up to uniform position offsets. Everything a world
// does from a state is a function of that state and of its fault injector,
// so a run that matches a template, with an injector that from there on
// behaves as the template's (the caller's to establish), will do what the
// template did after that point: a campaign can stop it there and inherit
// the template's suffix.
//
// The offset argument. Some fields are positions: counters that only
// advance and that no step reads except to advance them (the clock, the
// step and event counts, each process's Steps and Crashes and output count).
// A run that crashed and rolled back re-executes, so its positions run ahead
// of the template's for ever after, though its state may otherwise be the
// template's again. Such a run still does what the template does, shifted:
// every step reads positions only relative to one another (a wake-up against
// the clock, a stop against Steps), and a shift applied to both sides of
// each comparison keeps its outcome. SameState therefore compares the
// position fields as offsets, the fields that hold positions (wake-ups,
// delivery times, signal times, stops, retained receive positions) shifted
// by them, and everything else exactly, and reports the offsets. All-zero
// offsets are an exact match. A nonzero offset holds only as far as nothing
// reads an absolute position: a program that reads the clock (Ctx.Now,
// Ctx.NowVirtual, the OS's gettimeofday — counted in ClockReads) breaks the
// argument, and so does a step or time limit. No other position is within a
// program's reach, since Ctx leads to neither its Proc nor its World.
// SameState refuses nonzero offsets under a limit; the caller must establish
// that the template's suffix reads no clock (its ClockReads does not move).

// Offsets is how far a world's positions run ahead of the template state
// SameState matched (negative: behind). Each is uniform: every process's
// Steps, Crashes and output count moved by the same amount. Layer reports a
// Recovery or OS layer whose own counters matched only shifted (dc commit
// epochs, kernel syscall and corruption counters).
type Offsets struct {
	Clock   time.Duration
	Steps   int   // world step count
	Events  int64 // EventCount
	Proc    int   // each process's Steps
	Crashes int   // each process's Crashes
	Outputs int   // each process's output count
	Layer   bool
}

// Zero reports an exact match.
func (o Offsets) Zero() bool { return o == Offsets{} }

// StateComparer is implemented by an OS or Recovery layer that can prove its
// state equal to a template of its own type, and by a Program that keeps
// state its Step reads outside the bytes MarshalState encodes (World.SameState
// asks it in addition to comparing those bytes). off holds the world's
// offsets: a layer compares the positions it keeps shifted by them, may
// match its own advancing counters as offsets too (setting off.Layer), and
// compares the rest exactly. SameState must only read the template, a
// sealed world's component shared by concurrent runs, and must answer false
// whenever it cannot prove equality.
type StateComparer interface {
	SameState(template any, off *Offsets) bool
}

// ProgramStates encodes every process's program state, the form SameState
// compares programs in. Encode a template's once, when it is sealed, and keep
// them beside it.
func (w *World) ProgramStates() ([][]byte, error) {
	out := make([][]byte, len(w.Procs))
	for i, p := range w.Procs {
		b, err := appendProgramState(nil, p.Prog)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// ClockReads counts the program-facing reads of the clock so far: Ctx.Now,
// Ctx.NowVirtual and the OS's gettimeofday. A template whose count does not
// move over a stretch read no absolute time in it.
func (w *World) ClockReads() int64 { return w.clockReads }

// SameState reports whether w is in the state template t was sealed in, up
// to uniform position offsets, and the offsets; progs is t's ProgramStates.
// It compares, cheapest first, the world's counters (as offsets) and
// configuration, each process's session and scheduler fields, the Recovery
// and then the OS layer (which must implement StateComparer), and last the
// programs' state bytes (and a program's own SameState, where it has one).
// Nonzero offsets are refused under MaxTime or MaxSteps, which read absolute
// positions. Output contents, the trace, the fault injector, observability
// sinks, scratch buffers and the readiness index are history, harness wiring
// or derived bookkeeping: they never steer a step. SameState writes only
// w's own offset scratch and pooled encoding scratch, and only reads t, so
// any number of runs may compare against one template concurrently; it
// allocates nothing once the pool holds a buffer.
func (w *World) SameState(t *World, progs [][]byte) (Offsets, bool) {
	// The layers fill the offsets through a pointer; a local would move to
	// the heap on every call, since the pointer crosses StateComparer.
	off := &w.sameOff
	*off = Offsets{Clock: w.Clock - t.Clock, Steps: w.stepCount - t.stepCount, Events: w.EventCount - t.EventCount}
	if len(w.Procs) != len(t.Procs) || len(progs) != len(w.Procs) || len(w.Outputs) != len(t.Outputs) {
		return *off, false
	}
	if len(w.Procs) > 0 {
		p, tp := w.Procs[0], t.Procs[0]
		off.Proc, off.Crashes = p.Steps-tp.Steps, p.Crashes-tp.Crashes
		off.Outputs = len(w.Outputs[0]) - len(t.Outputs[0])
	}
	if w.doneCount != t.doneCount || w.deadCount != t.deadCount || w.msgSeq != t.msgSeq ||
		w.seed != t.seed || w.inited != t.inited || w.Latency != t.Latency ||
		w.MaxTime != t.MaxTime || w.MaxSteps != t.MaxSteps || w.ScanSched != t.ScanSched ||
		w.RecordTrace != t.RecordTrace ||
		!off.Zero() && (w.MaxTime != 0 || w.MaxSteps != 0) {
		return *off, false
	}
	for i, p := range w.Procs {
		if len(w.Outputs[i]) != len(t.Outputs[i])+off.Outputs || !p.sameSession(t.Procs[i], off) {
			return *off, false
		}
	}
	if !sameLayer(w.Recovery, t.Recovery, off) || !sameLayer(w.OS, t.OS, off) {
		return *off, false
	}
	buf, _ := stateBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	defer stateBufs.Put(buf)
	for i, p := range w.Procs {
		var err error
		if *buf, err = appendProgramState((*buf)[:0], p.Prog); err != nil || !bytes.Equal(*buf, progs[i]) {
			return *off, false
		}
		if sc, ok := p.Prog.(StateComparer); ok && !sc.SameState(t.Procs[i].Prog, off) {
			return *off, false
		}
	}
	return *off, true
}

// stateBufs holds the scratch SameState encodes a world's programs in: a
// run compares itself a few times and is dropped, so the buffer outlives it.
var stateBufs sync.Pool

// sameLayer compares an attached Recovery or OS layer with the template's.
func sameLayer(c, t any, off *Offsets) bool {
	if c == nil || t == nil {
		return c == nil && t == nil
	}
	sc, ok := c.(StateComparer)
	return ok && sc.SameState(t, off)
}

// sameSession compares everything of a process but its program: identity,
// scheduling status and wake-up, the session counters a checkpoint carries,
// message queues, pending stops and signals, the random stream's position
// and the scripted input, with Steps, Crashes and every position shifted by
// off. The inbox minimum and the readiness-index links are caches of these,
// and the Ctx's elapsed, sleepFor and crashReason live for one step: Step
// resets them before it reads them.
func (p *Proc) sameSession(t *Proc, off *Offsets) bool {
	return p.Index == t.Index && p.status == t.status && p.wake-off.Clock == t.wake && p.dead == t.dead &&
		p.Steps-off.Proc == t.Steps && p.Crashes-off.Crashes == t.Crashes && p.InputCursor == t.InputCursor &&
		p.SendSeq == t.SendSeq && p.rngSeed == t.rngSeed &&
		p.rngDraws == t.rngDraws && p.ctx.crashed == t.ctx.crashed &&
		slices.Equal(p.RecvHW, t.RecvHW) &&
		slices.EqualFunc(p.stops, t.stops, func(a, b int) bool { return a-off.Proc == b }) &&
		slices.EqualFunc(p.signals, t.signals, func(a, b pendingSignal) bool { return a.sig == b.sig && a.at-off.Clock == b.at }) &&
		slices.EqualFunc(p.inbox, t.inbox, func(a, b *Msg) bool { return sameMsg(a, b, off.Clock) }) &&
		slices.EqualFunc(p.retained, t.retained, func(a, b Retained) bool { return a.At-off.Proc == b.At && sameMsg(a.Msg, b.Msg, off.Clock) }) &&
		sameInputs(p.ctx.Inputs, t.ctx.Inputs)
}

// sameMsg compares two messages by value, a's delivery time shifted back by
// dt.
func sameMsg(a, b *Msg, dt time.Duration) bool {
	return a == b && dt == 0 || a.ID == b.ID && a.From == b.From && a.To == b.To && a.SendIdx == b.SendIdx &&
		a.DeliverAt-dt == b.DeliverAt && bytes.Equal(a.Payload, b.Payload)
}

// SameRetained compares two lists of retained messages by value: a recovery
// layer that holds them for redelivery compares its own through it. Their
// positions are relative to the layer's own anchor; off.Clock shifts the
// delivery times.
func SameRetained(a, b []Retained, off *Offsets) bool {
	return slices.EqualFunc(a, b, func(x, y Retained) bool { return x.At == y.At && sameMsg(x.Msg, y.Msg, off.Clock) })
}

// sameInputs compares scripted inputs; a fork shares its template's.
func sameInputs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
