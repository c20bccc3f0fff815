package sim

import (
	"bytes"
	"slices"
)

// This file is the read-only half of the snapshot engine. World.SameState
// decides whether a running world has reached exactly the state a sealed
// template world was sealed in. Everything a world does from a state is a
// function of that state and of its fault injector, so a run that matches a
// template, with an injector that from there on behaves as the template's
// (the caller's to establish), will do what the template did after that
// point: a campaign can stop it there and inherit the template's suffix.

// StateComparer is implemented by an OS or Recovery layer that can prove its
// state equal to a template of its own type, and by a Program that keeps
// state its Step reads outside the bytes MarshalState encodes (World.SameState
// asks it in addition to comparing those bytes). SameState must only read
// the template, a sealed world's component shared by concurrent runs, and
// must answer false whenever it cannot prove equality.
type StateComparer interface {
	SameState(template any) bool
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

// SameState reports whether w is in exactly the state template t was sealed
// in; progs is t's ProgramStates. It compares, cheapest first, the world's
// clock, counters and configuration, each process's session and scheduler
// fields and output count, the Recovery and then the OS layer (which must
// implement StateComparer), and last the programs' state bytes (and a
// program's own SameState, where it has one). Output contents, the trace,
// the fault injector, observability sinks, scratch buffers and the
// readiness index are history, harness wiring or derived bookkeeping: they
// never steer a step. SameState writes only w's own encoding scratch and
// only reads t, so any number of runs may compare against one template
// concurrently.
func (w *World) SameState(t *World, progs [][]byte) bool {
	if w.Clock != t.Clock || w.stepCount != t.stepCount || w.EventCount != t.EventCount ||
		w.doneCount != t.doneCount || w.deadCount != t.deadCount || w.msgSeq != t.msgSeq ||
		w.seed != t.seed || w.inited != t.inited || w.Latency != t.Latency ||
		w.MaxTime != t.MaxTime || w.MaxSteps != t.MaxSteps || w.ScanSched != t.ScanSched ||
		w.RecordTrace != t.RecordTrace || len(w.Procs) != len(t.Procs) || len(progs) != len(w.Procs) {
		return false
	}
	for i, p := range w.Procs {
		if !p.sameSession(t.Procs[i]) {
			return false
		}
	}
	if len(w.outProc) != len(t.outProc) {
		return false
	}
	for i := range w.Outputs {
		if len(w.Outputs[i]) != len(t.Outputs[i]) {
			return false
		}
	}
	if !sameLayer(w.Recovery, t.Recovery) || !sameLayer(w.OS, t.OS) {
		return false
	}
	for i, p := range w.Procs {
		if w.stateBuf == nil {
			w.stateBuf = make([]byte, 0, len(progs[i])+len(progs[i])/8)
		}
		var err error
		if w.stateBuf, err = appendProgramState(w.stateBuf[:0], p.Prog); err != nil || !bytes.Equal(w.stateBuf, progs[i]) {
			return false
		}
		if sc, ok := p.Prog.(StateComparer); ok && !sc.SameState(t.Procs[i].Prog) {
			return false
		}
	}
	return true
}

// sameLayer compares an attached Recovery or OS layer with the template's.
func sameLayer(c, t any) bool {
	if c == nil || t == nil {
		return c == nil && t == nil
	}
	sc, ok := c.(StateComparer)
	return ok && sc.SameState(t)
}

// sameSession compares everything of a process but its program: identity,
// scheduling status and wake-up, the session counters a checkpoint carries,
// message queues, pending stops and signals, the random stream's position
// and the scripted input. The inbox minimum and the readiness-index links
// are caches of these, and the Ctx's elapsed, sleepFor and crashReason live
// for one step: Step resets them before it reads them.
func (p *Proc) sameSession(t *Proc) bool {
	return p.Index == t.Index && p.status == t.status && p.wake == t.wake && p.dead == t.dead &&
		p.Steps == t.Steps && p.Crashes == t.Crashes && p.InputCursor == t.InputCursor &&
		p.SendSeq == t.SendSeq && p.rngSeed == t.rngSeed &&
		p.rngDraws == t.rngDraws && p.ctx.crashed == t.ctx.crashed &&
		slices.Equal(p.RecvHW, t.RecvHW) && slices.Equal(p.stops, t.stops) && slices.Equal(p.signals, t.signals) &&
		sameMsgs(p.inbox, t.inbox) && SameRetained(p.retained, t.retained) && sameInputs(p.ctx.Inputs, t.ctx.Inputs)
}

// sameMsg compares two messages by value.
func sameMsg(a, b *Msg) bool {
	return a == b || a.ID == b.ID && a.From == b.From && a.To == b.To && a.SendIdx == b.SendIdx &&
		a.DeliverAt == b.DeliverAt && bytes.Equal(a.Payload, b.Payload)
}

func sameMsgs(a, b []*Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameMsg(a[i], b[i]) {
			return false
		}
	}
	return true
}

// SameRetained compares two lists of retained messages by value: a recovery
// layer that holds them for redelivery compares its own through it.
func SameRetained(a, b []Retained) bool {
	return slices.EqualFunc(a, b, func(x, y Retained) bool { return x.At == y.At && sameMsg(x.Msg, y.Msg) })
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
