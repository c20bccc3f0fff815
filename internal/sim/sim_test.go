package sim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"time"

	"failtrans/internal/event"
)

// counter emits n visible outputs then finishes.
type counter struct {
	N    int
	Done int
}

func (c *counter) Name() string        { return "counter" }
func (c *counter) Init(ctx *Ctx) error { return nil }
func (c *counter) MarshalState() ([]byte, error) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(c.N))
	binary.LittleEndian.PutUint64(b[8:16], uint64(c.Done))
	return b[:], nil
}
func (c *counter) UnmarshalState(d []byte) error {
	c.N = int(binary.LittleEndian.Uint64(d[0:8]))
	c.Done = int(binary.LittleEndian.Uint64(d[8:16]))
	return nil
}
func (c *counter) Step(ctx *Ctx) Status {
	if c.Done >= c.N {
		return Done
	}
	ctx.Compute(time.Millisecond)
	ctx.Output(fmt.Sprintf("tick %d", c.Done))
	c.Done++
	return Ready
}

func TestCounterRunsToCompletion(t *testing.T) {
	w := NewWorld(1, &counter{N: 3})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("world not done")
	}
	want := []string{"tick 0", "tick 1", "tick 2"}
	if len(w.Outputs[0]) != 3 {
		t.Fatalf("outputs = %v", w.Outputs[0])
	}
	for i, s := range want {
		if w.Outputs[0][i] != s {
			t.Errorf("output[%d] = %q, want %q", i, w.Outputs[0][i], s)
		}
	}
	// Virtual time advanced by 3 compute ms plus event overheads.
	if w.Clock < 3*time.Millisecond {
		t.Errorf("clock = %v, want >= 3ms", w.Clock)
	}
	// Trace contains 3 visible events.
	vis := 0
	for _, e := range w.Trace.Events {
		if e.Kind == event.Visible {
			vis++
		}
	}
	if vis != 3 {
		t.Errorf("visible events = %d, want 3", vis)
	}
}

// TestGlobalOutputsPrefixGolden pins the "p<index>:" prefix of the global
// output interleaving byte for byte, multi-digit indices included.
func TestGlobalOutputsPrefixGolden(t *testing.T) {
	progs := make([]Program, 11)
	for i := range progs {
		progs[i] = &counter{}
	}
	progs[0], progs[10] = &counter{N: 1}, &counter{N: 2}
	w := NewWorld(1, progs...)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	got := append([]string(nil), w.GlobalOutputs()...)
	sort.Strings(got) // the interleaving is the scheduler's business, not this test's
	want := []string{"p0:tick 0", "p10:tick 0", "p10:tick 1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("GlobalOutputs = %q, want %q", got, want)
	}
}

// pinger sends Rounds pings to peer 1 and waits for each pong.
type pinger struct {
	Rounds       int
	Sent         int
	AwaitingPong bool
}

func (p *pinger) Name() string        { return "pinger" }
func (p *pinger) Init(ctx *Ctx) error { return nil }
func (p *pinger) MarshalState() ([]byte, error) {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.Rounds))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.Sent))
	if p.AwaitingPong {
		b[16] = 1
	}
	return b[:], nil
}
func (p *pinger) UnmarshalState(d []byte) error {
	p.Rounds = int(binary.LittleEndian.Uint64(d[0:8]))
	p.Sent = int(binary.LittleEndian.Uint64(d[8:16]))
	p.AwaitingPong = d[16] == 1
	return nil
}
func (p *pinger) Step(ctx *Ctx) Status {
	if p.AwaitingPong {
		m, ok := ctx.Recv()
		if !ok {
			return WaitMsg
		}
		ctx.Output("pong: " + string(m.Payload))
		p.AwaitingPong = false
		return Ready
	}
	if p.Sent >= p.Rounds {
		return Done
	}
	if err := ctx.Send(1, []byte(fmt.Sprintf("ping %d", p.Sent))); err != nil {
		ctx.Crash(err.Error())
		return Crashed
	}
	p.Sent++
	p.AwaitingPong = true
	return Ready
}

// ponger echoes every ping back.
type ponger struct {
	Seen int
	Max  int
}

func (p *ponger) Name() string        { return "ponger" }
func (p *ponger) Init(ctx *Ctx) error { return nil }
func (p *ponger) MarshalState() ([]byte, error) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.Seen))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.Max))
	return b[:], nil
}
func (p *ponger) UnmarshalState(d []byte) error {
	p.Seen = int(binary.LittleEndian.Uint64(d[0:8]))
	p.Max = int(binary.LittleEndian.Uint64(d[8:16]))
	return nil
}
func (p *ponger) Step(ctx *Ctx) Status {
	if p.Seen >= p.Max {
		return Done
	}
	m, ok := ctx.Recv()
	if !ok {
		return WaitMsg
	}
	p.Seen++
	if err := ctx.Send(m.From, m.Payload); err != nil {
		ctx.Crash(err.Error())
		return Crashed
	}
	return Ready
}

func TestPingPong(t *testing.T) {
	w := NewWorld(7, &pinger{Rounds: 3}, &ponger{Max: 3})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatalf("statuses: %v %v", w.Procs[0].Status(), w.Procs[1].Status())
	}
	if len(w.Outputs[0]) != 3 || w.Outputs[0][2] != "pong: ping 2" {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
	// Message latency must show up in the clock: 6 hops.
	if w.Clock < 6*w.Latency {
		t.Errorf("clock %v < 6 latencies", w.Clock)
	}
	// The trace's receive events must match their sends.
	hb := event.NewHB(w.Trace)
	for _, e := range w.Trace.Events {
		if e.Kind != event.Receive {
			continue
		}
		found := false
		for _, s := range w.Trace.Events {
			if s.Kind == event.Send && s.Msg == e.Msg {
				if !hb.HappensBefore(s.ID, e.ID) {
					t.Errorf("send %v not before receive %v", s.ID, e.ID)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("receive %v has no matching send", e.ID)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]string, time.Duration, int64) {
		w := NewWorld(99, &pinger{Rounds: 5}, &ponger{Max: 5})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.GlobalOutputs(), w.Clock, w.EventCount
	}
	o1, c1, e1 := run()
	o2, c2, e2 := run()
	if c1 != c2 || e1 != e2 || len(o1) != len(o2) {
		t.Fatalf("nondeterministic run: %v/%v %d/%d", c1, c2, e1, e2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("output %d differs: %q vs %q", i, o1[i], o2[i])
		}
	}
}

func TestSendToUnknownProcess(t *testing.T) {
	w := NewWorld(1, &pinger{Rounds: 1})
	// Peer 1 does not exist; the pinger crashes itself on the error.
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Procs[0].Dead() {
		t.Error("process should be dead after unrecovered crash")
	}
	if w.Procs[0].Crashes != 1 {
		t.Errorf("Crashes = %d", w.Procs[0].Crashes)
	}
}

// panicker panics mid-step; the scheduler must convert it to a crash.
type panicker struct{ counter }

func (p *panicker) Step(ctx *Ctx) Status {
	var xs []int
	_ = xs[3] // index out of range
	return Done
}

func TestPanicBecomesCrash(t *testing.T) {
	w := NewWorld(1, &panicker{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Procs[0].Dead() {
		t.Error("panicking process should be dead")
	}
}

// inputEcho echoes scripted input to visible output.
type inputEcho struct{ counter }

func (p *inputEcho) Step(ctx *Ctx) Status {
	in, ok := ctx.Input()
	if !ok {
		return Done
	}
	ctx.Output(string(in))
	return Ready
}

func TestScriptedInput(t *testing.T) {
	w := NewWorld(1, &inputEcho{})
	w.Procs[0].ctx.Inputs = [][]byte{[]byte("a"), []byte("b")}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.Outputs[0]) != 2 || w.Outputs[0][0] != "a" || w.Outputs[0][1] != "b" {
		t.Errorf("outputs = %v", w.Outputs[0])
	}
	// Input events are fixed-ND in the trace.
	for _, e := range w.Trace.Events {
		if e.Label == "input" && e.ND != event.FixedND {
			t.Errorf("input event class = %v", e.ND)
		}
	}
}

// ndUser reads the clock and a random value then outputs.
type ndUser struct{ counter }

func (p *ndUser) Step(ctx *Ctx) Status {
	if p.Done >= 2 {
		return Done
	}
	p.Done++
	now := ctx.Now()
	r := ctx.Rand()
	ctx.Output(fmt.Sprintf("%d %d", now, r))
	return Ready
}

func TestNDEventsRecorded(t *testing.T) {
	w := NewWorld(3, &ndUser{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var trans int
	for _, e := range w.Trace.Events {
		if e.ND == event.TransientND {
			trans++
		}
	}
	if trans != 4 {
		t.Errorf("transient ND events = %d, want 4 (2 clock + 2 rand)", trans)
	}
}

// hookRecorder is a Recovery stub that records hook invocations and can
// replay ND values.
type hookRecorder struct {
	befores []string
	afters  []string
	replay  map[string][][]byte
	logged  []string
}

func (h *hookRecorder) BeforeEvent(p *Proc, kind event.Kind, nd event.NDClass, label string) {
	h.befores = append(h.befores, fmt.Sprintf("%s/%s", kind, label))
}
func (h *hookRecorder) AfterEvent(p *Proc, ev event.Event) {
	h.afters = append(h.afters, fmt.Sprintf("%s/%s", ev.Kind, ev.Label))
}
func (h *hookRecorder) SupplyND(p *Proc, label string) ([]byte, bool) {
	q := h.replay[label]
	if len(q) == 0 {
		return nil, false
	}
	v := q[0]
	h.replay[label] = q[1:]
	return v, true
}
func (h *hookRecorder) RecordND(p *Proc, label string, val []byte) bool {
	h.logged = append(h.logged, label)
	return false
}
func (h *hookRecorder) EndStep(p *Proc)                     {}
func (h *hookRecorder) OnBlocked(p *Proc) bool              { return false }
func (h *hookRecorder) OnCrash(p *Proc, reason string) bool { return false }

// noopRecovery is a Recovery stub that intercepts nothing and never
// recovers: attaching it is what makes a world keep consumed messages for
// redelivery, which tests of the retention machinery need.
type noopRecovery struct{}

func (noopRecovery) BeforeEvent(*Proc, event.Kind, event.NDClass, string) {}
func (noopRecovery) AfterEvent(*Proc, event.Event)                        {}
func (noopRecovery) SupplyND(*Proc, string) ([]byte, bool)                { return nil, false }
func (noopRecovery) RecordND(*Proc, string, []byte) bool                  { return false }
func (noopRecovery) EndStep(*Proc)                                        {}
func (noopRecovery) OnBlocked(*Proc) bool                                 { return false }
func (noopRecovery) OnCrash(*Proc, string) bool                           { return false }

func TestRecoveryHooksInvoked(t *testing.T) {
	h := &hookRecorder{replay: map[string][][]byte{}}
	w := NewWorld(5, &ndUser{})
	w.Recovery = h
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.befores) == 0 || len(h.afters) == 0 {
		t.Fatal("hooks not invoked")
	}
	if len(h.befores) != len(h.afters) {
		t.Errorf("before/after imbalance: %d vs %d", len(h.befores), len(h.afters))
	}
	// ND values were offered for logging.
	if len(h.logged) != 4 {
		t.Errorf("logged offers = %v, want 4", h.logged)
	}
}

func TestNDReplayOverridesLive(t *testing.T) {
	var fixed [8]byte
	binary.LittleEndian.PutUint64(fixed[:], 4242)
	h := &hookRecorder{replay: map[string][][]byte{
		"gettimeofday": {fixed[:], fixed[:]},
		"rand":         {fixed[:], fixed[:]},
	}}
	w := NewWorld(5, &ndUser{})
	w.Recovery = h
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Outputs[0] {
		if s != "4242 4242" {
			t.Errorf("output %q, want replayed 4242s", s)
		}
	}
	// Replayed events must be recorded as logged.
	for _, e := range w.Trace.Events {
		if e.ND == event.TransientND && !e.Logged {
			t.Errorf("replayed ND event not marked logged: %v", e)
		}
	}
}

// TestRetainedRedelivery: a consumed message is retained with the position
// of its receive; a rollback takes the buffer over, and a message handed back
// with Redeliver is consumed by the next Recv as a live receive — without
// touching the inbox, offered for logging and retained again at its new
// position — until CommitPoint releases the buffer.
func TestRetainedRedelivery(t *testing.T) {
	w := NewWorld(11, &pinger{Rounds: 1}, &ponger{Max: 1})
	h := &hookRecorder{}
	w.Recovery = h
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	// The pong the pinger consumed is retained (no commits happened).
	if len(p.retained) != 1 || p.retained[0].At != 1 {
		t.Fatalf("retained = %+v, want one message at position 1", p.retained)
	}
	taken := w.TakeRetained(p)
	if len(taken) != 1 || len(p.retained) != 0 {
		t.Fatalf("TakeRetained handed %d messages over and left %d", len(taken), len(p.retained))
	}
	// Rollback contract: the recovery layer restores the checkpointed
	// RecvHW (here: pre-consumption) before handing messages back.
	p.RecvHW = nil
	p.inboxAdd(&Msg{ID: 99, From: 1, SendIdx: 5, Payload: []byte("live")})
	offers := len(h.logged)
	w.Redeliver(p, taken[0].Msg)
	m, ok := p.ctx.Recv()
	if !ok || m.ID != taken[0].Msg.ID || string(m.Payload) != "ping 0" {
		t.Fatalf("recv after Redeliver = %+v %v, want the handed-back pong", m, ok)
	}
	if len(p.inbox) != 1 || p.redelivered != nil {
		t.Errorf("the handed-back receive touched the inbox (%d) or left the hand-off set", len(p.inbox))
	}
	if len(h.logged) != offers+1 {
		t.Error("the handed-back receive was not offered for logging")
	}
	if len(p.retained) != 1 || p.retained[0].Msg != taken[0].Msg || p.retained[0].At != p.Steps-1 {
		t.Errorf("retained after redelivery = %+v, want the same message at position %d", p.retained, p.Steps-1)
	}
	if m, ok := p.ctx.Recv(); !ok || m.ID != 99 {
		t.Fatalf("next recv = %+v %v, want the live message", m, ok)
	}
	w.CommitPoint(p)
	if len(p.retained) != 0 {
		t.Error("commit point must clear retained messages")
	}
	checkVacatedNil(t, w)
}

func TestCheckpointImageRoundTrip(t *testing.T) {
	w := NewWorld(1, &counter{N: 10})
	p := w.Procs[0]
	p.InputCursor = 7
	prog := p.Prog.(*counter)
	prog.Done = 4
	img, err := p.CheckpointImage(false)
	if err != nil {
		t.Fatal(err)
	}
	prog.Done = 9
	p.InputCursor = 99
	if err := p.RestoreCheckpointImage(img); err != nil {
		t.Fatal(err)
	}
	if prog.Done != 4 || p.InputCursor != 7 {
		t.Errorf("restored Done=%d cursor=%d", prog.Done, p.InputCursor)
	}
}

func TestRestoreCheckpointImageTruncated(t *testing.T) {
	w := NewWorld(1, &counter{N: 1})
	if err := w.Procs[0].RestoreCheckpointImage([]byte{1, 2}); err == nil {
		t.Error("truncated image must be rejected")
	}
}

// sleeper sleeps between outputs; checks virtual time accounting.
type sleeper struct{ counter }

func (p *sleeper) Step(ctx *Ctx) Status {
	if p.Done >= 3 {
		return Done
	}
	p.Done++
	ctx.Output("beat")
	ctx.Sleep(100 * time.Millisecond)
	return Sleeping
}

func TestSleepAdvancesClock(t *testing.T) {
	w := NewWorld(1, &sleeper{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Clock < 300*time.Millisecond {
		t.Errorf("clock = %v, want >= 300ms", w.Clock)
	}
}

func TestMaxTimeStopsRun(t *testing.T) {
	w := NewWorld(1, &sleeper{})
	w.MaxTime = 150 * time.Millisecond
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.AllDone() {
		t.Error("run should have been cut off by MaxTime")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	w := NewWorld(1, &sleeper{})
	w.MaxSteps = 2
	if err := w.Run(); err == nil {
		t.Error("MaxSteps overrun must error")
	}
}

func TestTraceDisabled(t *testing.T) {
	w := NewWorld(1, &counter{N: 5})
	w.RecordTrace = false
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.Trace.Events) != 0 {
		t.Error("trace recorded despite RecordTrace=false")
	}
	if w.EventCount == 0 {
		t.Error("EventCount must still count")
	}
}

func TestStatusString(t *testing.T) {
	names := map[Status]string{Ready: "ready", WaitMsg: "wait-msg", Sleeping: "sleeping", Done: "done", Crashed: "crashed", Status(9): "unknown"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := []FaultKind{NoFault, StackBitFlip, HeapBitFlip, DestReg, InitFault, DeleteBranch, DeleteInstr, OffByOne}
	want := []string{"none", "stack bit flip", "heap bit flip", "destination reg", "initialization", "delete branch", "delete instruction", "off by one"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("FaultKind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

// sigEcho outputs every signal it takes, then its scripted input.
type sigEcho struct{ counter }

func (p *sigEcho) Step(ctx *Ctx) Status {
	if sig, ok := ctx.TakeSignal(); ok {
		ctx.Output("sig:" + sig)
		return Ready
	}
	in, ok := ctx.Input()
	if !ok {
		return Done
	}
	ctx.Output(string(in))
	ctx.Sleep(time.Millisecond)
	return Sleeping
}

func TestSignalDelivery(t *testing.T) {
	w := NewWorld(1, &sigEcho{})
	w.Procs[0].ctx.Inputs = [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	w.DeliverSignal(0, "SIGWINCH", 1500*time.Microsecond)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var sigs, keys int
	for _, o := range w.Outputs[0] {
		if o == "sig:SIGWINCH" {
			sigs++
		} else {
			keys++
		}
	}
	if sigs != 1 || keys != 3 {
		t.Errorf("outputs = %v, want 1 signal + 3 keys", w.Outputs[0])
	}
	// The signal event is transient-ND in the trace.
	found := false
	for _, e := range w.Trace.Events {
		if e.Label == "signal" {
			found = true
			if e.ND != event.TransientND {
				t.Errorf("signal class = %v", e.ND)
			}
		}
	}
	if !found {
		t.Error("no signal event recorded")
	}
}
