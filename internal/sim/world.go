package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"failtrans/internal/event"
	"failtrans/internal/obs"
)

// Msg is one message in flight or delivered.
type Msg struct {
	ID       int64
	From, To int
	// SendIdx is the per-sender sequence number, used to filter the
	// duplicate messages that re-executed sends produce (the paper's
	// requirement that applications "tolerate or filter duplicate
	// messages" is met here by the runtime, as a transport layer would).
	SendIdx   int64
	Payload   []byte
	DeliverAt time.Duration
}

// Proc is one simulated process.
//
// The fields are laid out hot-first: a scheduling decision, a send and a
// receive read and write only what lies in the first 192 bytes (three cache
// lines' worth; TestProcHotFieldsFirst pins it), ending with the inline
// Ctx's per-step scalars. A fleet-scale world touches each drained process
// cold, so every further line a decision reaches is one more miss. The
// recovery buffer, the random stream, the crash and input counters and the
// signal queue, which a failure-free fleet never reads, come last.
type Proc struct {
	Index int
	Prog  Program
	World *World

	// wake is the earliest virtual time the process may run again.
	wake time.Duration

	// schedAt/schedNext/schedPrev are the process's entry in the world's
	// readiness index (see sched.go): schedAt is the key (the readyAt the
	// index last saw), schedNext/schedPrev the pids of its neighbours in a
	// bucket or the due run (schedNone at a list end; schedPrev is
	// schedOut while the process is not in the index), and schedDirty,
	// packed with the other one-byte fields, marks a pending reindex on
	// the world's stale list.
	schedAt   time.Duration
	schedNext int32
	schedPrev int32

	status     Status
	schedDirty bool
	dead       bool

	// inboxMin caches the minimum DeliverAt over the inbox so the
	// scheduler's WaitMsg wake-up lookup is O(1) instead of rescanning
	// the inbox at every scheduling decision. inboxMinOK marks the cache
	// valid; any inbox mutation either maintains the minimum (appends)
	// or invalidates it (removals), and the next lookup recomputes.
	inboxMinOK bool
	inboxMin   time.Duration
	inbox      []*Msg

	// stops are the pending stop failures, ascending (ScheduleStop).
	stops []int
	// Steps counts event positions on this process; fault timelines and
	// protocol bookkeeping are expressed in this counter.
	Steps int
	// RecvHW records, per sender, the highest SendIdx consumed; messages
	// at or below it are duplicates from a re-executed send. The marks are
	// strictly increasing by sender, so the slice is its own checkpoint
	// order; a process has one mark per peer it ever heard from.
	RecvHW []RecvMark
	// SendSeq is the per-sender message sequence counter; rolled back
	// with the process so re-executed sends reuse their indexes and the
	// receivers' duplicate filters drop them.
	SendSeq int64

	// ctx is the runtime context handed to the program, inline in the
	// process's own slab slot, so Proc is self-referential (ctx.p == the
	// process): Proc values must never be copied — worlds allocate
	// fixed-size slabs and fork fills slots in place.
	ctx Ctx

	// events is the process's event-path counter block: record and inboxAdd
	// count into it whether or not a registry is attached, and EnableObs
	// zeroes it and points the registry at it. It sits behind the Ctx, next
	// to the lines a decision already touches, rather than in a registry
	// array the event would otherwise reach only for its counters; a fork's
	// block starts at zero, as forks carry no registry.
	events obs.EventCounts

	// retained is the paper's "recovery buffer": the messages consumed
	// since the recovery layer last released it (CommitPoint), for it to
	// take over at a rollback (TakeRetained); without a recovery layer it
	// stays empty. Every removal from retained and inbox clears the slots
	// it vacates, so a consumed message (and the arena blocks behind it)
	// is not kept alive by a queue it has left.
	retained []Retained
	// redelivered is a retained message handed back to the receive in
	// progress (Redeliver), which consumes it: nil between steps.
	redelivered *Msg

	// rng is materialized lazily by rand(): seeding a rand.Rand fills a
	// 607-word generator, which would dominate fork cost for the many
	// workloads that never draw from it.
	rng *rand.Rand
	// rngSeed and rngDraws make the rng forkable: a fork records the seed
	// and draw count, and the first draw reseeds a fresh generator and
	// fast-forwards to the same point in the stream (rand.Rand state is
	// not otherwise copyable).
	rngSeed  int64
	rngDraws int64

	// Crashes counts how many times the process crashed.
	Crashes int
	// InputCursor indexes the scripted fixed-ND input; it is part of the
	// state Discount Checking must checkpoint (kernel/session state).
	InputCursor int
	// signals is the pending signal queue (delivered by virtual time).
	signals []pendingSignal
}

// RecvMark is one sender's receive high-water mark: the highest SendIdx the
// process consumed from process From.
type RecvMark struct {
	From int
	Idx  int64
}

// initCtx wires the inline context to its owning process. Must run before
// the Proc is shared, and never again after ctx escapes.
func (p *Proc) initCtx() {
	p.ctx = Ctx{p: p}
}

// inboxAdd appends a message, maintaining the cached delivery minimum and
// the inbox-depth gauge.
func (p *Proc) inboxAdd(m *Msg) {
	p.inbox = append(p.inbox, m)
	if len(p.inbox) == 1 {
		p.inboxMin = m.DeliverAt
		p.inboxMinOK = true
	} else if p.inboxMinOK && m.DeliverAt < p.inboxMin {
		p.inboxMin = m.DeliverAt
	}
	if depth := int64(len(p.inbox)); depth > p.events.InboxPeak {
		p.events.InboxPeak = depth
	}
	p.World.schedTouch(p)
}

// inboxChanged invalidates the cached delivery minimum after a removal or
// wholesale rebuild of the inbox.
func (p *Proc) inboxChanged() {
	p.inboxMinOK = false
	p.World.schedTouch(p)
}

// earliestInbox returns the minimum DeliverAt over the inbox, recomputing
// the cache only when an earlier mutation invalidated it.
func (p *Proc) earliestInbox() (time.Duration, bool) {
	if len(p.inbox) == 0 {
		return 0, false
	}
	if !p.inboxMinOK {
		best := p.inbox[0].DeliverAt
		for _, m := range p.inbox[1:] {
			if m.DeliverAt < best {
				best = m.DeliverAt
			}
		}
		p.inboxMin = best
		p.inboxMinOK = true
	}
	return p.inboxMin, true
}

// pendingSignal is one scheduled asynchronous signal.
type pendingSignal struct {
	sig string
	at  time.Duration
}

// Status returns the process's scheduling status.
func (p *Proc) Status() Status { return p.status }

// Ctx returns the process's runtime context.
func (p *Proc) Ctx() *Ctx { return &p.ctx }

// Dead reports whether the process crashed and was not recovered.
func (p *Proc) Dead() bool { return p.dead }

// World is one simulated computation.
type World struct {
	Procs []*Proc
	Clock time.Duration

	// Recovery, if non-nil, intercepts events (Discount Checking).
	Recovery Recovery
	// OS, if non-nil, serves syscalls.
	OS OS
	// Faults, if non-nil, drives application fault injection.
	Faults FaultInjector

	// Latency is the one-way message latency (switched 100 Mb/s
	// Ethernet era: ~100 µs for small messages).
	Latency time.Duration

	// RecordTrace enables full event-trace recording (needed by the
	// invariant checkers; off for long benchmark runs).
	RecordTrace bool
	Trace       *event.Trace

	// Outputs collects each process's visible output, in emission order.
	Outputs [][]string
	// outProc is the emitting process of every visible output, in global
	// order: what GlobalOutputs needs to interleave Outputs again.
	outProc []int32

	// MaxTime aborts the run when the virtual clock passes it (0 = no
	// limit); MaxSteps bounds total steps likewise.
	MaxTime  time.Duration
	MaxSteps int

	// EventCount counts all recorded events (even with tracing off).
	EventCount int64

	// Metrics, if non-nil, receives the per-process counters, gauges and
	// virtual-time histograms of the observability layer. The hooks are
	// fixed-slot increments, so the instrumented hot paths stay
	// allocation-free.
	Metrics *obs.Metrics
	// Tracer, if non-nil, receives causal spans and flow arrows over
	// virtual time (exported as Chrome trace-event JSON).
	Tracer *obs.Tracer

	// ScanSched selects the legacy O(Procs) scheduling scan instead of
	// the readiness index — the differential oracle the equivalence tests
	// compare against; no command sets it.
	// Must be set before the first Step; Fork inherits it.
	ScanSched bool

	// The readiness index, a calendar queue of the runnable processes
	// keyed by (readyAt, pid); see sched.go. sched is its one buffer: the
	// ring's bucket heads (pids), then its occupancy bitmap. Buckets are
	// 1<<schedShift ns wide (Fork inherits the width); schedCur is the due
	// slot and schedDue/schedTail the ends of the due run; schedLen counts
	// the entries. schedStale lists processes whose readiness inputs
	// changed since the last scheduling decision, and schedBuilt marks the
	// index constructed (it rebuilds lazily on the first indexed decision
	// after NewWorld, Init or Fork).
	sched      []int32
	schedMask  int64
	schedShift uint
	schedCur   int64
	schedDue   int32
	schedTail  int32
	schedLen   int
	schedStale []*Proc
	schedBuilt bool

	// doneCount/deadCount track status transitions so AllDone and
	// liveness queries are O(1) instead of rescanning Procs.
	doneCount int
	deadCount int

	// msgBlock/byteBlock are the world's arenas: send bump-allocates Msg
	// headers and payload bytes, and Ctx.OutputBytes the text of a visible
	// output, out of blocks instead of a heap object each. Their bytes are
	// written once, when they are handed out, and never again: messages
	// are immutable once enqueued (every mutation path copies first) and
	// visible output is never undone, not even by a rollback. So blocks
	// are safely shared with forks; a fork starts fresh blocks of its own.
	msgBlock  []Msg
	byteBlock []byte

	// ndBuf is the scratch every live ND value that needs encoding (a
	// receive record, a syscall result, a signal name, a clock or random
	// word) is built in before Recovery.RecordND sees it. RecordND copies
	// what it keeps, so one buffer serves the whole world; a fork starts
	// without one.
	ndBuf []byte
	// argv is the argument vector Ctx.Syscall hands OS.Call, cleared after
	// each call; a fork starts without one.
	argv [][]byte
	// sameOff is the scratch SameState fills the offsets in.
	sameOff Offsets

	msgSeq    int64
	stepCount int
	// clockReads counts the program-facing clock reads (ClockReads).
	clockReads int64
	seed       int64
	inited     bool
	// frozen marks a world sealed by Freeze as an immutable fork template:
	// stepping it is a bug, and its components fork copy-on-write.
	frozen bool
}

// msgBlockSize sizes the message header blocks, and byteBlockMin and
// byteBlockMax bound the byte blocks: big enough to amortize allocation to
// noise, small enough that a mostly-idle world wastes little. Byte blocks
// start small and double up to the cap, because most campaign forks send
// or print only a few lines (a fixed 4 KiB first block per fork raised
// the tables workloads' allocated bytes per run past their 1 % bound),
// while a 10⁵-process fleet sends megabytes (a 4 or 8 KiB cap raised its
// allocations per scheduling decision by 5.6 or 1.9 %).
const (
	msgBlockSize = 256
	byteBlockMin = 128
	byteBlockMax = 16 << 10
)

// allocMsg bump-allocates one message header from the arena. A full block
// is abandoned to the messages already pointing into it (the GC frees it
// when the last one goes) and a fresh block begins.
//
//failtrans:hotpath
func (w *World) allocMsg() *Msg {
	if len(w.msgBlock) == cap(w.msgBlock) {
		//failtrans:alloc amortized arena growth: one block per msgBlockSize messages
		w.msgBlock = make([]Msg, 0, msgBlockSize)
	}
	n := len(w.msgBlock)
	w.msgBlock = w.msgBlock[:n+1]
	return &w.msgBlock[n]
}

// allocBytes bump-allocates n bytes, capacity-clamped so an appending
// consumer can never bleed into the next span. A block too full for n is
// abandoned to the spans already handed out of it, and the next one is
// twice as big, up to byteBlockMax, and never smaller than n; nothing
// rewinds a block, so handed-out bytes never move and are never reused.
//
//failtrans:hotpath
func (w *World) allocBytes(n int) []byte {
	if len(w.byteBlock)+n > cap(w.byteBlock) {
		size := byteBlockMin
		if c := cap(w.byteBlock); c > 0 {
			size = min(2*c, byteBlockMax)
		}
		//failtrans:alloc amortized arena growth: one block per byteBlockMax bytes, fewer while the world is young
		w.byteBlock = make([]byte, 0, max(size, n))
	}
	off := len(w.byteBlock)
	w.byteBlock = w.byteBlock[:off+n]
	return w.byteBlock[off : off+n : off+n]
}

// ndWord encodes one 64-bit ND value (a clock reading, a random draw) into
// the world's ND scratch and returns it; it is valid until the next ND event.
//
//failtrans:hotpath
func (w *World) ndWord(v uint64) []byte {
	w.ndBuf = binary.LittleEndian.AppendUint64(w.ndBuf[:0], v)
	return w.ndBuf
}

// GlobalOutputs interleaves all visible output in global order as
// "p<idx>:<payload>". It is built on each call — the commands and tests
// that print or compare a whole run read it once — so that a visible event
// pays for one process index, not for a second copy of its string.
func (w *World) GlobalOutputs() []string {
	out := make([]string, len(w.outProc))
	next := make([]int, len(w.Outputs))
	for i, p := range w.outProc {
		out[i] = "p" + strconv.Itoa(int(p)) + ":" + w.Outputs[p][next[p]]
		next[p]++
	}
	return out
}

// NewWorld creates a computation of the given programs, seeded
// deterministically. Processes live in one fixed-size slab (their contexts
// inlined), so a 10⁵-proc world is a handful of allocations, not 3n; the
// slab never grows, keeping interior pointers stable. The per-sender
// receive high-water marks grow on receive (bumpRecvHW), so parked
// processes carry none.
func NewWorld(seed int64, progs ...Program) *World {
	w := &World{
		Latency:     100 * time.Microsecond,
		Trace:       event.NewTrace(len(progs)),
		Outputs:     make([][]string, len(progs)),
		RecordTrace: true,
		seed:        seed,
		ScanSched:   DefaultScanSched,
	}
	slab := make([]Proc, len(progs))
	w.Procs = make([]*Proc, len(progs))
	for i, prog := range progs {
		p := &slab[i]
		p.Index = i
		p.Prog = prog
		p.World = w
		p.rngSeed = seed ^ (int64(i)+1)*0x5851f42d4c957f2d
		p.initCtx()
		w.Procs[i] = p
	}
	return w
}

// record appends an event to the trace (when enabled) and invokes the
// recovery layer's interception hooks around it. It returns the recorded
// event.
func (w *World) record(p *Proc, kind event.Kind, nd event.NDClass, logged bool, msg int64, peer int, label string) event.Event {
	ev := event.Event{
		ID:     event.ID{P: p.Index, I: -1},
		Kind:   kind,
		ND:     nd,
		Logged: logged,
		Msg:    msg,
		Peer:   peer,
		Label:  label,
	}
	w.EventCount++
	p.Steps++
	ec := &p.events
	ec.Events[kind]++
	if ev.EffectivelyND() {
		ec.EffectivelyND++
	} else if ev.Logged {
		ec.Logged++
	}
	if t := w.Tracer; t != nil {
		ts := p.Clock()
		switch kind {
		// Sends and receives become small slices carrying the ends of the
		// happens-before flow arrow for their message; visible events are
		// instants. Internal events are counted but not traced (a long run
		// has millions), and commit spans are emitted by the recovery
		// layer, which knows their cost and payload.
		case event.Send:
			t.Span(p.Index, "net", "send", ts-EventOverhead, EventOverhead)
			t.FlowStart(p.Index, "net", "msg", msg, ts-EventOverhead)
		case event.Receive:
			t.Span(p.Index, "net", "recv", ts-EventOverhead, EventOverhead)
			t.FlowEnd(p.Index, "net", "msg", msg, ts-EventOverhead)
		case event.Visible:
			t.Instant(p.Index, "app", label, ts)
		}
	}
	if w.RecordTrace {
		//failtrans:alloc full trace recording is the checkers' mode and grows the trace by design; measured runs set RecordTrace=false
		return w.Trace.MustAppend(ev)
	}
	// Without tracing we still need a plausible ID for bookkeeping.
	ev.ID.I = p.Steps
	return ev
}

// RecordCommit lets the recovery layer mark a commit event on p's timeline.
func (w *World) RecordCommit(p *Proc, label string) event.Event {
	return w.record(p, event.Commit, event.Deterministic, false, 0, 0, label)
}

// AddTime charges virtual time to the currently stepping process p (commit
// costs, recovery costs...).
func (w *World) AddTime(p *Proc, d time.Duration) {
	p.ctx.elapsed += d
}

// Delay pushes back the next wake-up of a parked process — used when a
// coordinated commit charges time to processes other than the one whose
// event triggered it.
func (w *World) Delay(p *Proc, d time.Duration) {
	p.wake += d
	if p.wake < w.Clock {
		p.wake = w.Clock
	}
	w.schedTouch(p)
}

// send enqueues a message for delivery.
func (w *World) send(from, to int, payload []byte) (int64, error) {
	if to < 0 || to >= len(w.Procs) {
		//failtrans:alloc cold error path: a send to an unknown process fails before any event
		return 0, fmt.Errorf("sim: send to unknown process %d", to)
	}
	w.msgSeq++
	src := w.Procs[from]
	src.SendSeq++
	buf := w.allocBytes(len(payload))
	copy(buf, payload)
	m := w.allocMsg()
	*m = Msg{
		ID:        w.msgSeq,
		From:      from,
		To:        to,
		SendIdx:   src.SendSeq,
		Payload:   buf,
		DeliverAt: w.Clock + src.ctx.elapsed + w.Latency,
	}
	w.Procs[to].inboxAdd(m)
	return m.ID, nil
}

// Retained is a consumed message kept for redelivery after a rollback, and
// the event position of its receive (the consumer's Steps then).
type Retained struct {
	Msg *Msg
	At  int
}

// retain remembers a consumed message for redelivery after a rollback. Only
// a recovery layer rolls a process back, so a world without one keeps
// nothing.
func (p *Proc) retain(m *Msg) {
	if p.World.Recovery != nil {
		p.retained = append(p.retained, Retained{Msg: m, At: p.Steps})
	}
}

// CommitPoint releases p's retention buffer once a commit or a log force
// made its messages' effects stable. The backing array is kept for reuse
// with its slots cleared, so it pins no message (or its arena blocks).
func (w *World) CommitPoint(p *Proc) {
	clear(p.retained)
	p.retained = p.retained[:0]
}

// TakeRetained hands a recovery layer rolling p back the retention buffer,
// oldest message first; the caller owns it, and p's buffer starts empty.
func (w *World) TakeRetained(p *Proc) []Retained {
	r := p.retained
	p.retained = nil
	return r
}

// Redeliver hands m, a message p consumed before a rollback, to the receive
// p is executing, which the recovery layer's SupplyND then answers live:
// Recv consumes m instead of reading the inbox and, like any live receive,
// retains it again and offers it for logging.
func (w *World) Redeliver(p *Proc, m *Msg) { p.redelivered = m }

// Requeue makes the messages a diverged re-execution will not be handed
// back deliverable now: arena copies re-timed to the clock go to the front
// of p's inbox, in the given (originally consumed) order.
func (w *World) Requeue(p *Proc, ms []Msg) {
	if len(ms) == 0 {
		return
	}
	if w.Tracer != nil {
		w.Tracer.Instant(p.Index, "sim", "requeue", w.Clock)
	}
	pre := make([]*Msg, 0, len(ms)+len(p.inbox))
	for _, m := range ms {
		c := w.allocMsg()
		*c = m
		c.To = p.Index
		c.DeliverAt = w.Clock
		pre = append(pre, c)
	}
	p.inbox = append(pre, p.inbox...)
	p.inboxChanged()
}

// DeliverSignal schedules an asynchronous signal for pid at virtual time
// `at`. Signals are the paper's canonical transient non-deterministic
// events ("taking a signal"); programs observe them by polling
// Ctx.TakeSignal.
func (w *World) DeliverSignal(pid int, sig string, at time.Duration) {
	p := w.Procs[pid]
	p.signals = append(p.signals, pendingSignal{sig: sig, at: at})
}

// readyAt returns the earliest time p can run, or ok=false if it never can.
func (w *World) readyAt(p *Proc) (time.Duration, bool) {
	if p.dead {
		return 0, false
	}
	switch p.status {
	case Ready:
		return p.wake, true
	case Sleeping:
		return p.wake, true
	case WaitMsg:
		best, ok := p.earliestInbox()
		if !ok {
			return 0, false
		}
		if best < p.wake {
			best = p.wake
		}
		return best, true
	default: // Done, Crashed (unrecovered)
		return 0, false
	}
}

// scanPick is the legacy O(Procs) scheduling scan: the first process with
// the strictly smallest readyAt wins, so ties go to the lowest pid. Kept
// behind ScanSched as the differential oracle the readiness index is
// byte-identity-checked against.
func (w *World) scanPick() (*Proc, time.Duration) {
	var pick *Proc
	var pickAt time.Duration
	for _, p := range w.Procs {
		at, ok := w.readyAt(p)
		if !ok {
			continue
		}
		if pick == nil || at < pickAt {
			pick, pickAt = p, at
		}
	}
	return pick, pickAt
}

// Step executes a single scheduling decision: pick the earliest runnable
// process and run one Program step. It returns false when no process can
// run.
func (w *World) Step() (bool, error) {
	if w.frozen {
		return false, fmt.Errorf("sim: stepping a frozen template world")
	}
	var pick *Proc
	var pickAt time.Duration
	if w.ScanSched {
		pick, pickAt = w.scanPick()
	} else {
		pick, pickAt = w.schedPick()
	}
	if pick == nil {
		return false, nil
	}
	if pickAt > w.Clock {
		w.Clock = pickAt
	}
	if w.MaxTime > 0 && w.Clock > w.MaxTime {
		return false, nil
	}
	w.stepCount++
	if w.MaxSteps > 0 && w.stepCount > w.MaxSteps {
		return false, fmt.Errorf("sim: exceeded %d steps (livelock?)", w.MaxSteps)
	}
	if w.Metrics != nil {
		w.Metrics.Steps++
	}

	p := pick
	p.ctx.elapsed = 0
	p.ctx.sleepFor = 0
	var st Status
	if p.pendingStop() {
		p.ctx.crashed = true
		p.ctx.crashReason = "stop failure"
		st = Crashed
	} else {
		st = p.safeStep()
	}
	if p.ctx.crashed {
		st = Crashed
	}
	if st != Crashed && w.Recovery != nil {
		w.Recovery.EndStep(p)
	}
	// A process that blocks during constrained re-execution may have a
	// receive due to be handed back (retry the step) or, blocking before
	// one, has diverged from its pre-failure run: the recovery layer
	// decides.
	if st == WaitMsg && w.Recovery != nil && w.Recovery.OnBlocked(p) {
		st = Ready
		p.wake = w.Clock + p.ctx.elapsed
	}
	p.status = st
	switch st {
	case Ready:
		p.wake = w.Clock + p.ctx.elapsed
	case Sleeping:
		p.wake = w.Clock + p.ctx.elapsed + p.ctx.sleepFor
	case WaitMsg:
		p.wake = w.Clock + p.ctx.elapsed
	case Crashed:
		p.Crashes++
		if w.Metrics != nil {
			w.Metrics.Procs[p.Index].Crashes++
		}
		if w.Tracer != nil {
			w.Tracer.Instant(p.Index, "fault", "crash: "+p.ctx.crashReason, w.Clock+p.ctx.elapsed)
		}
		p.ctx.crashed = false
		recovered := false
		if w.Recovery != nil {
			recovered = w.Recovery.OnCrash(p, p.ctx.crashReason)
		}
		if recovered {
			p.status = Ready
			p.wake = w.Clock + p.ctx.elapsed
		} else {
			p.dead = true
			w.deadCount++
		}
	case Done:
		p.wake = w.Clock + p.ctx.elapsed
		// The pick was runnable, so this is always a fresh transition
		// (Done processes never step again).
		w.doneCount++
	}
	// The stepped process's status, wake and inbox all changed; reindex it
	// at the next scheduling decision.
	w.schedTouch(p)
	return true, nil
}

// Init initializes every program. Run calls it implicitly, but a harness
// that must act between initialization and execution (e.g. to take the
// initial checkpoint the theory assumes always exists) can call it first.
func (w *World) Init() error {
	if w.inited {
		return nil
	}
	w.inited = true
	w.wireOSObs()
	for _, p := range w.Procs {
		if err := p.Prog.Init(&p.ctx); err != nil {
			return fmt.Errorf("sim: init process %d (%s): %w", p.Index, p.Prog.Name(), err)
		}
		p.wake = w.Clock + p.ctx.elapsed
		p.ctx.elapsed = 0
	}
	// Wakes moved wholesale; the first scheduling decision rebuilds the
	// readiness index from scratch (covers a pre-Init Step too).
	w.schedBuilt = false
	return nil
}

// Run drives the computation until nothing can run or a limit trips.
func (w *World) Run() error {
	if err := w.Init(); err != nil {
		return err
	}
	for {
		more, err := w.Step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// StepCount returns the number of scheduling decisions executed so far —
// the unit the snapshot engine's steps-saved accounting is expressed in.
func (w *World) StepCount() int { return w.stepCount }

// AllDone reports whether every process ran to completion. O(1): status
// transitions maintain the done counter (Done is terminal — a Done process
// is never runnable again).
func (w *World) AllDone() bool {
	return w.doneCount == len(w.Procs)
}

// DoneCount reports how many processes ran to completion.
func (w *World) DoneCount() int { return w.doneCount }

// Live reports how many processes are neither Done nor dead — the "active"
// the scheduler's O(active) is measured against. O(1) via the same
// transition counters.
func (w *World) Live() int {
	return len(w.Procs) - w.doneCount - w.deadCount
}
