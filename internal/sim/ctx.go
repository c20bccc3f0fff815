package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"failtrans/internal/event"
)

// EventOverhead is the virtual CPU cost charged per intercepted event — the
// trap/classification overhead of the recovery layer's interception (system
// call wrapping on the paper's hardware).
const EventOverhead = 2 * time.Microsecond

// FaultKind enumerates the paper's injected programming-error types
// (Table 1; fault model from Chandra's thesis [6]).
type FaultKind uint8

const (
	// NoFault means the site executes normally.
	NoFault FaultKind = iota
	// StackBitFlip flips a bit in local (short-lived) working data.
	StackBitFlip
	// HeapBitFlip flips a bit in long-lived heap data.
	HeapBitFlip
	// DestReg directs a computed value to the wrong destination.
	DestReg
	// InitFault skips an initialization, leaving garbage/zero.
	InitFault
	// DeleteBranch forces a conditional the wrong way.
	DeleteBranch
	// DeleteInstr skips one state update.
	DeleteInstr
	// OffByOne perturbs a bound or index by one.
	OffByOne
)

// String names the fault kind as in Table 1.
func (k FaultKind) String() string {
	switch k {
	case NoFault:
		return "none"
	case StackBitFlip:
		return "stack bit flip"
	case HeapBitFlip:
		return "heap bit flip"
	case DestReg:
		return "destination reg"
	case InitFault:
		return "initialization"
	case DeleteBranch:
		return "delete branch"
	case DeleteInstr:
		return "delete instruction"
	case OffByOne:
		return "off by one"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// FaultInjector decides whether a fault fires at an application fault site.
type FaultInjector interface {
	// At is consulted every time a process passes a fault site; a
	// non-NoFault return tells the application to corrupt itself there.
	At(p *Proc, site string) FaultKind
}

// Ctx is the runtime interface handed to Programs. Every method that has an
// external effect or a non-deterministic result records the corresponding
// event and passes through the recovery layer's hooks.
type Ctx struct {
	p *Proc

	// The step's charged time, requested sleep and crash flag: Step resets
	// the first two before and reads all three after every step, so they
	// sit ahead of the fields a step rarely reaches (see Proc's layout).
	elapsed  time.Duration
	sleepFor time.Duration
	crashed  bool

	// Inputs scripts the process's fixed-ND user input; Input consumes
	// it at the process's InputCursor.
	Inputs [][]byte

	crashReason string
}

// NowVirtual returns the current virtual time without recording any event.
// It counts as a clock read (World.ClockReads): a program that reads it
// depends on absolute time.
func (c *Ctx) NowVirtual() time.Duration {
	c.p.World.clockReads++
	return c.p.Clock()
}

// Clock returns the process's current virtual time: the world clock plus
// what its step has charged so far. It is the runtime's and the layers' own
// read, for scheduling, delivery and tracing; a program reads the clock
// through Ctx.Now or Ctx.NowVirtual, which count the read.
func (p *Proc) Clock() time.Duration { return p.World.Clock + p.ctx.elapsed }

// Compute charges d of CPU time to the current step.
func (c *Ctx) Compute(d time.Duration) { c.elapsed += d }

// Sleep asks the scheduler to park the process for d after this step; the
// Program should return Sleeping.
func (c *Ctx) Sleep(d time.Duration) { c.sleepFor = d }

// Crash marks the process as having executed a crash event. The Program
// should return Crashed (the scheduler enforces it regardless).
func (c *Ctx) Crash(reason string) {
	c.crashed = true
	c.crashReason = reason
}

// before runs the pre-event recovery hook.
func (c *Ctx) before(kind event.Kind, nd event.NDClass, label string) {
	if r := c.p.World.Recovery; r != nil {
		r.BeforeEvent(c.p, kind, nd, label)
	}
}

// after records the event and runs the post-event recovery hook.
func (c *Ctx) after(kind event.Kind, nd event.NDClass, logged bool, msg int64, peer int, label string) event.Event {
	c.elapsed += EventOverhead
	ev := c.p.World.record(c.p, kind, nd, logged, msg, peer, label)
	if r := c.p.World.Recovery; r != nil {
		r.AfterEvent(c.p, ev)
	}
	return ev
}

// replayND gives the recovery layer the chance to supply the logged value
// of the next ND event with this label during constrained re-execution;
// ok=false means the event executes live, and for a poll a nil val with
// ok=true means the original poll found nothing (see Recovery.SupplyND).
func (c *Ctx) replayND(label string) ([]byte, bool) {
	if r := c.p.World.Recovery; r != nil {
		return r.SupplyND(c.p, label)
	}
	return nil, false
}

// recordND offers the live value of an ND event to the recovery layer for
// logging and reports whether it was logged (deterministic for Save-work).
// val need only be valid during the call, since RecordND copies what it
// keeps: callers encode into the world's scratch buffer.
func (c *Ctx) recordND(label string, val []byte) bool {
	if r := c.p.World.Recovery; r != nil {
		return r.RecordND(c.p, label, val)
	}
	return false
}

// Now executes a gettimeofday: a transient non-deterministic event.
//
//failtrans:hotpath
func (c *Ctx) Now() time.Duration {
	c.p.World.clockReads++
	c.before(event.Internal, event.TransientND, "gettimeofday")
	v, logged := c.replayND("gettimeofday")
	if !logged {
		v = c.p.World.ndWord(uint64(c.p.Clock()))
		logged = c.recordND("gettimeofday", v)
	}
	now := time.Duration(binary.LittleEndian.Uint64(v))
	c.after(event.Internal, event.TransientND, logged, 0, 0, "gettimeofday")
	return now
}

// Rand draws from the process's transient-ND random stream (scheduling
// jitter, signal timing and similar sources are modeled through it).
//
//failtrans:hotpath
func (c *Ctx) Rand() uint64 {
	c.before(event.Internal, event.TransientND, "rand")
	v, logged := c.replayND("rand")
	if !logged {
		//failtrans:alloc the generator materializes once per process (and once per fork, on its first draw)
		r := c.p.rand() // materialize before counting this draw
		c.p.rngDraws++
		v = c.p.World.ndWord(r.Uint64())
		logged = c.recordND("rand", v)
	}
	x := binary.LittleEndian.Uint64(v)
	c.after(event.Internal, event.TransientND, logged, 0, 0, "rand")
	return x
}

// Input consumes the next scripted user input: a fixed non-deterministic
// event (the user will retype the same thing after a failure). ok=false
// means the script is exhausted. The returned bytes are read-only: they are
// the script's own (or, in a replay, the log's), capacity-clamped so an
// append cannot reach them; a Program that wants to edit its input copies it.
func (c *Ctx) Input() ([]byte, bool) {
	if c.p.InputCursor >= len(c.Inputs) {
		return nil, false
	}
	c.before(event.Internal, event.FixedND, "input")
	v, logged := c.replayND("input")
	if !logged {
		v = c.Inputs[c.p.InputCursor]
		v = v[:len(v):len(v)]
		logged = c.recordND("input", v)
	}
	c.p.InputCursor++
	c.after(event.Internal, event.FixedND, logged, 0, 0, "input")
	return v, true
}

// TakeSignal polls for a delivered signal: a transient non-deterministic
// event (its timing relative to the computation is unpredictable, and a
// re-execution may not see it at the same point — or at all). ok=false
// means no signal is pending.
//
//failtrans:hotpath
func (c *Ctx) TakeSignal() (string, bool) {
	// Constrained re-execution replays logged signals at their recorded
	// positions, and a logged empty poll as empty.
	if v, ok := c.replayND("signal"); ok {
		if v == nil {
			return "", false
		}
		c.before(event.Internal, event.TransientND, "signal")
		c.after(event.Internal, event.TransientND, true, 0, 0, "signal")
		//failtrans:alloc constrained re-execution only: the replayed signal is rebuilt from its log record
		return string(v), true
	}
	now := c.p.Clock()
	idx := -1
	for i, ps := range c.p.signals {
		if ps.at <= now && (idx < 0 || ps.at < c.p.signals[idx].at) {
			idx = i
		}
	}
	if idx < 0 {
		return "", false
	}
	c.before(event.Internal, event.TransientND, "signal")
	sig := c.p.signals[idx].sig
	c.p.signals = slices.Delete(c.p.signals, idx, idx+1)
	w := c.p.World
	logged := false
	if w.Recovery != nil {
		w.ndBuf = append(w.ndBuf[:0], sig...)
		logged = c.recordND("signal", w.ndBuf)
	}
	c.after(event.Internal, event.TransientND, logged, 0, 0, "signal")
	return sig, true
}

// Send transmits payload to process `to`.
func (c *Ctx) Send(to int, payload []byte) error {
	c.before(event.Send, event.Deterministic, "send")
	if c.crashed {
		// The recovery layer crashed the process in its pre-send hook
		// (e.g. a refused commit): the send never happens.
		return nil
	}
	id, err := c.p.World.send(c.p.Index, to, payload)
	if err != nil {
		return err
	}
	c.after(event.Send, event.Deterministic, false, id, to, "send")
	return nil
}

// Recv consumes the next delivered message. ok=false means nothing has
// arrived yet and the Program should return WaitMsg. A receive is a
// transient non-deterministic event (message timing and ordering).
//
//failtrans:hotpath
func (c *Ctx) Recv() (Msg, bool) {
	w := c.p.World
	// Constrained re-execution: replay a logged receive, or a logged
	// empty poll, without touching the inbox. The high-water mark still
	// advances so that a rolled-back sender's re-sent duplicate of this
	// message is filtered.
	if v, ok := c.replayND("recv"); ok {
		if v == nil {
			return Msg{}, false // the original poll found nothing here
		}
		//failtrans:alloc constrained re-execution only: the replayed message is rebuilt from its log record
		m := DecodeMsgRecord(v)
		c.p.bumpRecvHW(m.From, m.SendIdx)
		c.before(event.Receive, event.TransientND, "recv")
		c.after(event.Receive, event.TransientND, true, m.ID, m.From, "recv")
		return m, true
	}
	// Live: the retained message the recovery layer handed back for this
	// position (Redeliver), else the earliest delivered one in the inbox.
	m := c.p.redelivered
	c.p.redelivered = nil
	if m == nil {
		now := c.p.Clock()
		if w.Recovery != nil {
			c.p.dropDuplicates(now)
		}
		idx := -1
		for i, q := range c.p.inbox {
			if q.DeliverAt <= now && (idx < 0 || q.DeliverAt < c.p.inbox[idx].DeliverAt) {
				idx = i
			}
		}
		if idx < 0 {
			return Msg{}, false
		}
		m = c.p.inbox[idx]
		c.p.inbox = slices.Delete(c.p.inbox, idx, idx+1)
		c.p.inboxChanged()
	}
	c.before(event.Receive, event.TransientND, "recv")
	c.p.retain(m)
	c.p.bumpRecvHW(m.From, m.SendIdx)
	logged := false
	if w.Recovery != nil {
		w.ndBuf = AppendMsgRecord(w.ndBuf[:0], *m)
		logged = c.recordND("recv", w.ndBuf)
	}
	c.after(event.Receive, event.TransientND, logged, m.ID, m.From, "recv")
	return *m, true
}

// dropDuplicates removes from the inbox every delivered message at or below
// the consumed high-water mark for its sender: the duplicates that a
// rolled-back sender's re-executed sends produce. Only a recovery layer
// rolls a process back, so Recv filters only under one. Vacated slots are
// cleared, so the inbox's spare capacity pins no message.
func (p *Proc) dropDuplicates(now time.Duration) {
	kept := p.inbox[:0]
	for _, m := range p.inbox {
		if m.DeliverAt <= now && m.SendIdx <= p.recvHW(m.From) {
			continue
		}
		kept = append(kept, m)
	}
	if len(kept) != len(p.inbox) {
		clear(p.inbox[len(kept):])
		p.inbox = kept
		p.inboxChanged()
	}
}

// Output emits a visible event the user can see. Visible events can never
// be undone.
func (c *Ctx) Output(s string) { c.output(s) }

// OutputBytes emits b as a visible event, like Output, without a string of
// the caller's own: the text is copied into bytes from the world's byte
// arena (allocBytes), and Outputs keeps a string over that copy. That
// string is the one unsafe.String in the simulator. It is sound because
// nothing writes those bytes again: allocBytes hands a span out once and
// never rewinds its block, this call keeps no slice of the span, a fork
// starts a block of its own, and the frozen template whose strings a fork
// shares refuses to step. The copy is made before the pre-visible hook,
// since a commit there marshals the program's state and may reuse the
// scratch b lives in; b may be reused as soon as the call returns.
//
//failtrans:hotpath
func (c *Ctx) OutputBytes(b []byte) {
	text := c.p.World.allocBytes(len(b))
	copy(text, b)
	c.output(unsafe.String(unsafe.SliceData(text), len(text)))
}

// output is the one path a visible event takes.
func (c *Ctx) output(s string) {
	c.before(event.Visible, event.Deterministic, "output")
	if c.crashed {
		// Crashed in the pre-visible hook: nothing becomes visible.
		return
	}
	w := c.p.World
	w.Outputs[c.p.Index] = append(w.Outputs[c.p.Index], s)
	w.outProc = append(w.outProc, int32(c.p.Index))
	c.after(event.Visible, event.Deterministic, false, 0, 0, "output")
}

// Syscall calls into the simulated OS. The kernel classifies each call's
// non-determinism; deterministic calls need no logging or commit support.
// The result is valid until the process's next Syscall.
//
//failtrans:hotpath
func (c *Ctx) Syscall(name string, args ...[]byte) ([][]byte, error) {
	w := c.p.World
	os := w.OS
	if os == nil {
		//failtrans:alloc cold error path: a world without an OS fails the call before any event
		return nil, fmt.Errorf("sim: no OS attached (syscall %s)", name)
	}
	// The OS sees the arguments in the world's argv, valid only during the
	// call, so the caller's variadic array does not escape; argv grows to
	// the widest syscall once per world (and per fork).
	w.argv = append(w.argv[:0], args...)
	if name == "gettimeofday" {
		w.clockReads++ // the OS answers it with the clock
	}
	ret, nd, err := os.Call(c.p.Index, name, w.argv)
	clear(w.argv)
	if err != nil {
		return nil, err
	}
	label := sysLabel(name)
	c.before(event.Internal, nd, label)
	logged := false
	if nd != event.Deterministic && w.Recovery != nil {
		// During constrained re-execution a logged result replaces the
		// live one (the live call above already replayed any
		// kernel-state side effects).
		if v, ok := c.replayND(label); ok {
			//failtrans:alloc constrained re-execution only: the replayed result is rebuilt from its log record
			ret = DecodeParts(v)
			logged = true
		} else {
			w.ndBuf = AppendParts(w.ndBuf[:0], ret)
			logged = c.recordND(label, w.ndBuf)
		}
	}
	c.after(event.Internal, nd, logged, 0, 0, label)
	return ret, nil
}

// sysLabel is the event label of a syscall, "sys."+name, as a constant for
// the calls the kernel serves so that a syscall builds no string.
func sysLabel(name string) string {
	switch name {
	case "open":
		return "sys.open"
	case "close":
		return "sys.close"
	case "read":
		return "sys.read"
	case "write":
		return "sys.write"
	case "lseek":
		return "sys.lseek"
	case "truncate":
		return "sys.truncate"
	case "unlink":
		return "sys.unlink"
	case "stat":
		return "sys.stat"
	case "gettimeofday":
		return "sys.gettimeofday"
	case "select":
		return "sys.select"
	case "getpid":
		return "sys.getpid"
	}
	return "sys." + name
}

// Fault consults the fault injector at a named site. Applications call it
// at their instrumented fault points and apply the returned corruption
// themselves.
func (c *Ctx) Fault(site string) FaultKind {
	if c.p.World.Faults == nil {
		return NoFault
	}
	return c.p.World.Faults.At(c.p, site)
}

// AppendMsgRecord appends m's receive-log record to dst and returns the
// extended slice: the message's ID, sender and send index as little-endian
// words, then its payload.
//
//failtrans:hotpath
func AppendMsgRecord(dst []byte, m Msg) []byte {
	dst = appendI64(dst, m.ID)
	dst = appendI64(dst, int64(m.From))
	dst = appendI64(dst, m.SendIdx)
	return append(dst, m.Payload...)
}

// DecodeMsgRecord is the inverse of AppendMsgRecord.
func DecodeMsgRecord(b []byte) Msg {
	if len(b) < 24 {
		return Msg{}
	}
	return Msg{
		ID:      int64(binary.LittleEndian.Uint64(b[0:8])),
		From:    int(binary.LittleEndian.Uint64(b[8:16])),
		SendIdx: int64(binary.LittleEndian.Uint64(b[16:24])),
		Payload: append([]byte(nil), b[24:]...),
	}
}

// AppendParts appends a multi-part syscall result to dst with length
// prefixes, so logged values can be replayed structurally intact, and
// returns the extended slice.
//
//failtrans:hotpath
func AppendParts(dst []byte, parts [][]byte) []byte {
	dst = appendI64(dst, int64(len(parts)))
	for _, p := range parts {
		dst = appendI64(dst, int64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// DecodeParts is the inverse of AppendParts.
func DecodeParts(data []byte) [][]byte {
	if len(data) < 8 {
		return nil
	}
	n := int(binary.LittleEndian.Uint64(data[0:8]))
	pos := 8
	out := make([][]byte, 0, n)
	for i := 0; i < n && pos+8 <= len(data); i++ {
		l := int(binary.LittleEndian.Uint64(data[pos : pos+8]))
		pos += 8
		if pos+l > len(data) {
			return out
		}
		out = append(out, append([]byte(nil), data[pos:pos+l]...))
		pos += l
	}
	return out
}
