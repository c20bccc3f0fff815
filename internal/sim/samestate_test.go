package sim

import (
	"reflect"
	"testing"
	"time"

	"failtrans/internal/fieldguard"
)

// sealedPair steps a two-process world part-way, seals it with Fork and
// returns the sealed template, its programs' encoded state and a maker of
// fresh forks to mutate.
func sealedPair(t *testing.T) (*World, [][]byte, func() *World) {
	t.Helper()
	w := NewWorld(3, &rngCounter{counter{N: 20}}, &rngCounter{counter{N: 20}})
	runToStep(t, w, 10)
	if _, err := w.Fork(); err != nil {
		t.Fatal(err)
	}
	progs, err := w.ProgramStates()
	if err != nil {
		t.Fatal(err)
	}
	return w, progs, func() *World {
		f, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
}

// TestWorldSameState: an untouched fork of a sealed world is in its
// template's state, and changing any one compared field of the world, a
// process or a program makes SameState answer false.
func TestWorldSameState(t *testing.T) {
	tmpl, progs, fork := sealedPair(t)
	cases := []struct {
		name   string
		mutate func(f *World)
		same   bool
	}{
		{"untouched", func(*World) {}, true},
		{"scratch only", func(f *World) { f.Procs[0].ctx.elapsed = time.Second; f.ndBuf = []byte{1} }, true},
		{"clock", func(f *World) { f.Clock++ }, false},
		{"step count", func(f *World) { f.stepCount++ }, false},
		{"process steps", func(f *World) { f.Procs[1].Steps++ }, false},
		{"input cursor", func(f *World) { f.Procs[0].InputCursor++ }, false},
		{"wake", func(f *World) { f.Procs[1].wake++ }, false},
		{"random stream", func(f *World) { f.Procs[0].rngDraws++ }, false},
		{"pending stop", func(f *World) { f.ScheduleStop(1, 99) }, false},
		{"output count", func(f *World) { f.Outputs[0] = append(f.Outputs[0], "x") }, false},
		{"program byte", func(f *World) { f.Procs[1].Prog.(*rngCounter).Done++ }, false},
		{"inbox", func(f *World) { f.Procs[0].inboxAdd(&Msg{ID: 1, To: 0}) }, false},
		{"recovery layer", func(f *World) { f.Recovery = noopRecovery{} }, false},
	}
	for _, c := range cases {
		f := fork()
		c.mutate(f)
		if got := f.SameState(tmpl, progs); got != c.same {
			t.Errorf("%s: SameState = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestWorldSameStateAfterSteps: a fork stepped on reaches the state of a
// template sealed further along the same run, and only at its step count.
func TestWorldSameStateAfterSteps(t *testing.T) {
	w := NewWorld(3, &rngCounter{counter{N: 20}})
	runToStep(t, w, 5)
	f, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	runToStep(t, f, 9)
	later, err := f.Fork()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := f.ProgramStates()
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	runToStep(t, g, 8)
	if g.SameState(f, progs) {
		t.Error("a world one step short matched the template")
	}
	runToStep(t, g, 9)
	if !g.SameState(f, progs) || !later.SameState(f, progs) {
		t.Error("a world stepped to the template's step count did not match it")
	}
}

// TestSameStateCoversEveryField is the guard over World.SameState: every
// field of World, Proc and Ctx is compared or is listed here as
// behaviour-neutral, with the reason.
func TestSameStateCoversEveryField(t *testing.T) {
	const (
		sink    = "observability sink: per-run harness wiring, never read by a step"
		scratch = "scratch buffer: rebuilt before every use"
		index   = "readiness-index bookkeeping: derived from the processes' status and wake, rebuilt after a fork"
		wiring  = "wiring to the owning world or process"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(World{}), map[string]string{
		"Procs": c, "Clock": c, "Recovery": c, "OS": c, "Latency": c, "RecordTrace": c,
		"MaxTime": c, "MaxSteps": c, "EventCount": c, "ScanSched": c, "doneCount": c, "deadCount": c,
		"msgSeq": c, "stepCount": c, "seed": c, "inited": c,
		"Outputs":      "history; only each process's output count is compared",
		"outProc":      "history; only its length (the output count) is compared",
		"Trace":        "history: the events recorded so far never steer a step",
		"Faults":       "per-run harness wiring; the caller establishes that its injectors agree from here on",
		"Metrics":      sink,
		"Tracer":       sink,
		"DebugLog":     sink,
		"sched":        index,
		"schedMask":    index,
		"schedShift":   index,
		"schedCur":     index,
		"schedDue":     index,
		"schedTail":    index,
		"schedLen":     index,
		"schedStale":   index,
		"schedBuilt":   index,
		"msgBlock":     "message arena: storage for messages, which compare by value",
		"payloadBlock": "message arena: storage for payloads, which compare by value",
		"ndBuf":        scratch,
		"argv":         scratch,
		"stateBuf":     scratch,
		"frozen":       "copy-on-write bookkeeping: a sealed template and its fork differ only here",
	})
	fieldguard.Check(t, reflect.TypeOf(Proc{}), map[string]string{
		"Index": c, "Prog": c, "status": c, "wake": c, "inbox": c, "retained": c, "rngSeed": c,
		"rngDraws": c, "Steps": c, "Crashes": c, "InputCursor": c, "SendSeq": c, "RecvHW": c,
		"stops": c, "signals": c, "dead": c, "ctxStore": c,
		"redelivered": "receive-scoped: handed back and consumed within one Recv, nil between steps",
		"World":       wiring,
		"ctx":         wiring,
		"rng":         "cache: rebuilt from rngSeed and rngDraws, which are compared",
		"inboxMin":    "cache of the inbox minimum, which is compared",
		"inboxMinOK":  "cache of the inbox minimum, which is compared",
		"schedAt":     index,
		"schedNext":   index,
		"schedPrev":   index,
		"schedDirty":  index,
	})
	fieldguard.Check(t, reflect.TypeOf(Ctx{}), map[string]string{
		"Inputs": c, "crashed": c,
		"p":           wiring,
		"elapsed":     "step-scoped: Step resets it before the step reads it",
		"sleepFor":    "step-scoped: Step resets it before the step reads it",
		"crashReason": "step-scoped: set by the crash it describes, read only in that step",
	})
}
