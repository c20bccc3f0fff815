package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// This file is the snapshot/fork engine: World.Fork seals a mid-run world and
// returns a copy-on-write fork of it in O(metadata), so fault campaigns can
// resume from a memoized clean prefix instead of re-executing it from step
// zero. A fork is fully independent of the sealed original and of its sibling
// forks — stepping one never changes another — and a sealed world may be
// forked concurrently from many goroutines (Fork of a sealed world only reads
// it).
//
// Three optional interfaces extend the protocol to pluggable components:
// the Program, OS and Recovery attached to a world must implement their
// respective Forkable* interface for the world to be forkable.

// Forker is implemented by Programs that can produce an independent copy of
// themselves. Implementations must carry over every bit of state that
// influences future Step calls; scratch buffers may be omitted. The receiver
// is never stepped again (World.Fork seals its world), so a copy may share
// state with it as long as the copy privatizes that state before writing it.
type Forker interface {
	Fork() (Program, error)
}

// ForkableOS is implemented by OS implementations that can fork their state
// into a new instance. The clock callback reads the forked world's virtual
// clock (the original's callback would read the template).
type ForkableOS interface {
	ForkOS(clock func() time.Duration) OS
}

// ForkableRecovery is implemented by Recovery layers that can fork their
// state against a forked world. The returned Recovery must observe w (not
// the template world) from then on.
type ForkableRecovery interface {
	ForkRecovery(w *World) Recovery
}

// Freezer is implemented by components (Program, OS, Recovery) that share
// structure with their forks: after Freeze the component is never mutated
// again, so its forks may alias its memory and privatize on first write. A
// component that is itself such a fork flattens on Freeze, so fork cost and
// lookup depth do not grow with the number of generations.
type Freezer interface {
	Freeze()
}

// Freeze seals a quiescent world as an immutable fork template: every
// component that implements Freezer is sealed, and the world itself refuses
// to step again. Freeze is idempotent, and a second call writes nothing.
func (w *World) Freeze() {
	if w.frozen {
		return
	}
	if f, ok := w.OS.(Freezer); ok {
		f.Freeze()
	}
	if f, ok := w.Recovery.(Freezer); ok {
		f.Freeze()
	}
	for _, p := range w.Procs {
		if f, ok := p.Prog.(Freezer); ok {
			f.Freeze()
		}
	}
	w.frozen = true
}

// Fork seals the world with Freeze and returns an independent fork of it,
// ready to resume from the exact point the original has reached; to carry the
// original's run on, step another fork. The template's pages are shared and
// privatized by each fork on first write. Observability sinks (Metrics,
// Tracer) and the Faults injector are NOT carried over — they are
// per-run harness concerns; the caller re-installs what it needs. The event
// Trace is copied when RecordTrace is set.
//
// Fork fails, leaving the world unsealed, if an attached Program, OS or
// Recovery does not implement its Forkable* interface.
func (w *World) Fork() (*World, error) {
	for _, p := range w.Procs {
		if _, ok := p.Prog.(Forker); !ok {
			return nil, fmt.Errorf("sim: program %T (%s) is not forkable", p.Prog, p.Prog.Name())
		}
	}
	fo, ok := w.OS.(ForkableOS)
	if w.OS != nil && !ok {
		return nil, fmt.Errorf("sim: attached OS %T is not forkable", w.OS)
	}
	fr, ok := w.Recovery.(ForkableRecovery)
	if w.Recovery != nil && !ok {
		return nil, fmt.Errorf("sim: attached recovery %T is not forkable", w.Recovery)
	}
	w.Freeze()
	nw := &World{
		Clock:       w.Clock,
		Latency:     w.Latency,
		RecordTrace: w.RecordTrace,
		Outputs:     make([][]string, len(w.Procs)),
		outProc:     w.outProc[:len(w.outProc):len(w.outProc)],
		MaxTime:     w.MaxTime,
		MaxSteps:    w.MaxSteps,
		EventCount:  w.EventCount,
		ScanSched:   w.ScanSched,
		schedShift:  w.schedShift,
		doneCount:   w.doneCount,
		deadCount:   w.deadCount,
		msgSeq:      w.msgSeq,
		stepCount:   w.stepCount,
		clockReads:  w.clockReads,
		seed:        w.seed,
		inited:      w.inited,
	}
	// The readiness index is not forked: nw.schedBuilt stays false and the
	// fork's first scheduling decision rebuilds its own queue (O(live), and
	// campaign forks typically step only a short suffix) at the inherited
	// bucket width. Message arenas likewise start fresh; the template's
	// messages are immutable and shared by pointer.
	// Outputs slices are append-only; a capacity-clamped reslice shares the
	// committed prefix copy-on-write: a fork's next append reallocates.
	for i, o := range w.Outputs {
		nw.Outputs[i] = o[:len(o):len(o)]
	}
	if w.Trace != nil && w.RecordTrace {
		// With RecordTrace off nothing ever appends to or reads the copy,
		// so campaign forks skip it (it is not cheap at fork rates).
		nw.Trace = w.Trace.Fork()
	}
	nw.Procs = make([]*Proc, len(w.Procs))
	slab := make([]Proc, len(w.Procs))
	for i, p := range w.Procs {
		np := &slab[i]
		if err := p.forkInto(np, nw); err != nil {
			return nil, err
		}
		nw.Procs[i] = np
	}
	if fo != nil {
		nw.OS = fo.ForkOS(func() time.Duration { return nw.Clock })
	}
	if fr != nil {
		nw.Recovery = fr.ForkRecovery(nw)
	}
	return nw, nil
}

// forkInto copies the process into slab slot np of world nw; Fork has checked
// that its program is a Forker. Messages are immutable once enqueued (every
// mutation path copies first), so inbox and retained entries share *Msg
// pointers with the template.
func (p *Proc) forkInto(np *Proc, nw *World) error {
	prog, err := p.Prog.(Forker).Fork()
	if err != nil {
		return fmt.Errorf("sim: fork program %s: %w", p.Prog.Name(), err)
	}
	*np = Proc{
		Index:       p.Index,
		Prog:        prog,
		World:       nw,
		status:      p.status,
		wake:        p.wake,
		inbox:       append([]*Msg(nil), p.inbox...),
		retained:    append([]Retained(nil), p.retained...),
		rngSeed:     p.rngSeed,
		rngDraws:    p.rngDraws,
		Steps:       p.Steps,
		Crashes:     p.Crashes,
		InputCursor: p.InputCursor,
		SendSeq:     p.SendSeq,
		stops:       append([]int(nil), p.stops...),
		signals:     append([]pendingSignal(nil), p.signals...),
		dead:        p.dead,
		inboxMin:    p.inboxMin,
		inboxMinOK:  p.inboxMinOK,
	}
	// A copy, never a shared backing array: bumpRecvHW updates a mark in
	// place, which would leak the fork's receives into its template.
	if len(p.RecvHW) > 0 {
		np.RecvHW = append([]RecvMark(nil), p.RecvHW...)
	}
	// np.rng stays nil: rand.Rand state cannot be copied, and seeding a
	// fresh generator per fork would dominate fork cost for the campaign
	// workloads that never call Ctx.Rand. The recorded seed and draw count
	// let rand() rebuild the identical stream position on first draw.
	np.initCtx()
	np.ctx.Inputs = p.ctx.Inputs // scripted input is immutable
	return nil
}

// recvMark finds sender from's receive mark by binary search: its index and
// whether it is there, or the index that keeps RecvHW sorted if not.
func (p *Proc) recvMark(from int) (int, bool) {
	lo, hi := 0, len(p.RecvHW)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.RecvHW[mid].From < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.RecvHW) && p.RecvHW[lo].From == from
}

// recvHW returns the highest SendIdx consumed from sender from, 0 if none.
func (p *Proc) recvHW(from int) int64 {
	if i, ok := p.recvMark(from); ok {
		return p.RecvHW[i].Idx
	}
	return 0
}

// bumpRecvHW advances the per-sender receive high-water mark, in place when
// the sender has one and by a sorted insert the first time it is heard from.
//
//failtrans:hotpath
func (p *Proc) bumpRecvHW(from int, idx int64) {
	i, ok := p.recvMark(from)
	switch {
	case ok:
		p.RecvHW[i].Idx = max(p.RecvHW[i].Idx, idx)
	case idx > 0:
		//failtrans:alloc the slice grows once per new sender, to at most one mark per peer
		p.RecvHW = slices.Insert(p.RecvHW, i, RecvMark{From: from, Idx: idx})
	}
}

// rand returns the process's transient-ND generator, materializing it on
// first use: a fresh (or forked) process reseeds and fast-forwards the
// recorded number of draws to reach the exact point in the stream.
func (p *Proc) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.rngSeed))
		for i := int64(0); i < p.rngDraws; i++ {
			p.rng.Uint64()
		}
	}
	return p.rng
}
