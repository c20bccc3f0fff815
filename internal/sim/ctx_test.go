package sim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"failtrans/internal/event"
)

// fakeOS serves a single syscall and records calls.
type fakeOS struct {
	calls []string
	ret   [][]byte
	nd    event.NDClass
	err   error
	saved []byte
}

func (f *fakeOS) Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error) {
	f.calls = append(f.calls, name)
	return f.ret, f.nd, f.err
}
func (f *fakeOS) SaveProcState(pid int) []byte          { return f.saved }
func (f *fakeOS) RestoreProcState(pid int, blob []byte) { f.saved = blob }

// sysUser makes one syscall then finishes.
type sysUser struct {
	counter
	Err error
}

func (p *sysUser) Step(ctx *Ctx) Status {
	if p.Done > 0 {
		return Done
	}
	p.Done++
	_, p.Err = ctx.Syscall("stat", []byte("f"))
	return Ready
}

func TestCtxSyscall(t *testing.T) {
	w := NewWorld(1, &sysUser{})
	os := &fakeOS{ret: [][]byte{{1, 2}}, nd: event.Deterministic}
	w.OS = os
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(os.calls) != 1 || os.calls[0] != "stat" {
		t.Errorf("calls = %v", os.calls)
	}
	if w.Procs[0].Prog.(*sysUser).Err != nil {
		t.Error("syscall errored")
	}
	// Deterministic syscalls are recorded as deterministic events.
	for _, e := range w.Trace.Events {
		if e.Label == "sys.stat" && e.ND != event.Deterministic {
			t.Errorf("sys.stat class = %v", e.ND)
		}
	}
}

func TestCtxSyscallNoOS(t *testing.T) {
	w := NewWorld(1, &sysUser{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Procs[0].Prog.(*sysUser).Err == nil {
		t.Error("syscall without an OS must error")
	}
}

func TestCtxSyscallKernelError(t *testing.T) {
	w := NewWorld(1, &sysUser{})
	w.OS = &fakeOS{err: errors.New("boom")}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Procs[0].Prog.(*sysUser).Err == nil {
		t.Error("kernel error must propagate")
	}
}

// faultUser visits a fault site each step.
type faultUser struct {
	counter
	Kinds []FaultKind
}

func (p *faultUser) Step(ctx *Ctx) Status {
	if p.Done >= 3 {
		return Done
	}
	p.Done++
	p.Kinds = append(p.Kinds, ctx.Fault("site.x"))
	return Ready
}

type onceInjector struct{ fired bool }

func (o *onceInjector) At(p *Proc, site string) FaultKind {
	if o.fired || site != "site.x" {
		return NoFault
	}
	o.fired = true
	return OffByOne
}

func TestCtxFault(t *testing.T) {
	w := NewWorld(1, &faultUser{})
	w.Faults = &onceInjector{}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := w.Procs[0].Prog.(*faultUser).Kinds
	if len(kinds) != 3 || kinds[0] != OffByOne || kinds[1] != NoFault {
		t.Errorf("kinds = %v", kinds)
	}
	// No injector: always NoFault.
	w2 := NewWorld(1, &faultUser{})
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	for _, k := range w2.Procs[0].Prog.(*faultUser).Kinds {
		if k != NoFault {
			t.Error("fault without injector")
		}
	}
}

func TestMsgRecordCodec(t *testing.T) {
	m := Msg{ID: 7, From: 2, SendIdx: 99, Payload: []byte("data")}
	got := DecodeMsgRecord(AppendMsgRecord(nil, m))
	if got.ID != 7 || got.From != 2 || got.SendIdx != 99 || string(got.Payload) != "data" {
		t.Errorf("round trip = %+v", got)
	}
	if short := DecodeMsgRecord([]byte{1, 2}); short.ID != 0 {
		t.Error("short record must decode to zero message")
	}
}

func TestPartsCodec(t *testing.T) {
	parts := [][]byte{{1, 2}, nil, {3}}
	got := DecodeParts(AppendParts(nil, parts))
	if len(got) != 3 || !bytes.Equal(got[0], []byte{1, 2}) || len(got[1]) != 0 || !bytes.Equal(got[2], []byte{3}) {
		t.Errorf("round trip = %v", got)
	}
	if DecodeParts([]byte{1}) != nil {
		t.Error("short parts must decode to nil")
	}
	// Truncated payload stops gracefully.
	enc := AppendParts(nil, [][]byte{{1, 2, 3, 4}})
	if got := DecodeParts(enc[:len(enc)-2]); len(got) != 0 {
		t.Errorf("truncated decode = %v", got)
	}
}

// TestNDEventsAllocateNothing pins the live ND paths at zero steady-state
// allocations under a recovery layer that logs nothing: every value
// RecordND is offered is encoded into the world's one scratch buffer, valid
// only during the call.
func TestNDEventsAllocateNothing(t *testing.T) {
	w := NewWorld(1, &counter{}, &counter{})
	w.RecordTrace = false
	w.Recovery = noopRecovery{}
	w.OS = &fakeOS{ret: [][]byte{{1, 2, 3}}, nd: event.TransientND}
	sender, ctx := w.Procs[0].Ctx(), w.Procs[1].Ctx()
	const runs = 100
	// Every message the receives below consume (the warm-up run's too) is
	// sent first, so the measured calls see only Recv.
	for i := 0; i <= runs; i++ {
		if err := sender.Send(1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	w.Clock = time.Second // all delivered
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Recv", func() {
			if _, ok := ctx.Recv(); !ok {
				t.Fatal("no message to receive")
			}
			w.CommitPoint(ctx.p) // as a committing layer would, so retention does not grow
		}},
		{"Now", func() { ctx.Now() }},
		{"Rand", func() { ctx.Rand() }},
		{"TakeSignal", func() {
			w.DeliverSignal(1, "SIGALRM", 0)
			if _, ok := ctx.TakeSignal(); !ok {
				t.Fatal("no signal to take")
			}
		}},
		{"Syscall", func() {
			if _, err := ctx.Syscall("gettimeofday"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(runs, c.call); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", c.name, n)
		}
	}
}

// argvOS is an OS that keeps the argument vector it is handed, as a buggy
// OS might, and returns a fixed deterministic result.
type argvOS struct {
	fakeOS
	kept [][]byte
}

func (o *argvOS) Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error) {
	o.kept = args
	return o.ret, o.nd, nil
}

// TestSyscallArgsDoNotEscape pins Ctx.Syscall at zero allocations: the
// arguments reach OS.Call in the world's reused argv, so the caller's
// variadic array stays on its stack, and the vector is cleared once the call
// returns, so an OS that kept it holds no argument.
func TestSyscallArgsDoNotEscape(t *testing.T) {
	w := NewWorld(1, &counter{})
	w.RecordTrace = false
	os := &argvOS{fakeOS: fakeOS{ret: [][]byte{{8}}, nd: event.Deterministic}}
	w.OS = os
	ctx := w.Procs[0].Ctx()
	fd, data := []byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte("payload")
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ctx.Syscall("write", fd, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a two-argument syscall allocates %.0f times, want 0", n)
	}
	if len(os.kept) != 2 || os.kept[0] != nil || os.kept[1] != nil {
		t.Errorf("the OS's argument vector after the call = %q, want two cleared slots", os.kept)
	}
}

func TestDelayParkedProcess(t *testing.T) {
	w := NewWorld(1, &sleeper{})
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	w.Delay(p, 50*time.Millisecond)
	if p.wake < 50*time.Millisecond {
		t.Errorf("wake = %v", p.wake)
	}
	// Delay never moves the wake time before the clock.
	w.Clock = 200 * time.Millisecond
	w.Delay(p, -time.Hour)
	if p.wake < w.Clock {
		t.Errorf("wake %v fell behind clock %v", p.wake, w.Clock)
	}
}

func TestAccessors(t *testing.T) {
	w := NewWorld(2, &counter{N: 1}, &counter{N: 1})
	p := w.Procs[1]
	if p.Ctx().p != p || p.World != w {
		t.Error("accessor identity broken")
	}
	ev := w.RecordCommit(p, "manual")
	if ev.Kind != event.Commit || ev.ID.P != 1 {
		t.Errorf("RecordCommit = %v", ev)
	}
}

func TestScheduleStopOrdering(t *testing.T) {
	w := NewWorld(1, &counter{N: 10})
	w.ScheduleStop(0, 8)
	w.ScheduleStop(0, 3) // out of order: must fire at 3 first
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Without recovery the first stop kills the process.
	if !w.Procs[0].Dead() {
		t.Fatal("process should be dead")
	}
	if got := len(w.Outputs[0]); got != 3 {
		t.Errorf("outputs before the earlier stop = %d, want 3", got)
	}
}
