package sim

import (
	"encoding/binary"
	"reflect"
	"slices"
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

// shift moves every position of f by the offsets a re-execution would
// leave: the clock and every wake-up by dt, the world's step and event
// counts and each process's Steps by n.
func shift(f *World, dt time.Duration, n int) {
	f.Clock += dt
	f.stepCount += n
	f.EventCount += int64(n)
	for _, p := range f.Procs {
		p.wake += dt
		p.Steps += n
	}
}

// TestWorldSameState: an untouched fork of a sealed world is in its
// template's state exactly; a fork whose positions all moved by uniform
// offsets matches it shifted; and changing any one exactly compared field of
// the world, a process or a program, or one process's positions alone,
// makes SameState answer false.
func TestWorldSameState(t *testing.T) {
	tmpl, progs, fork := sealedPair(t)
	const (
		exact = iota
		shifted
		differs
	)
	cases := []struct {
		name   string
		mutate func(f *World)
		want   int
	}{
		{"untouched", func(*World) {}, exact},
		{"scratch only", func(f *World) { f.Procs[0].ctx.elapsed = time.Second; f.ndBuf = []byte{1} }, exact},
		{"clock and wake-ups", func(f *World) { shift(f, time.Second, 0) }, shifted},
		{"step and event counts", func(f *World) { f.stepCount += 3; f.EventCount += 7 }, shifted},
		{"every process's steps", func(f *World) { shift(f, 0, 4) }, shifted},
		{"every process's crashes", func(f *World) { f.Procs[0].Crashes++; f.Procs[1].Crashes++ }, shifted},
		{"every process's output count", func(f *World) {
			f.Outputs[0] = append(f.Outputs[0], "x")
			f.Outputs[1] = append(f.Outputs[1], "y")
		}, shifted},
		{"clock without the wake-ups", func(f *World) { f.Clock++ }, differs},
		{"one process's steps", func(f *World) { f.Procs[1].Steps++ }, differs},
		{"one process's output count", func(f *World) { f.Outputs[0] = append(f.Outputs[0], "x") }, differs},
		{"input cursor", func(f *World) { f.Procs[0].InputCursor++ }, differs},
		{"wake", func(f *World) { f.Procs[1].wake++ }, differs},
		{"random stream", func(f *World) { f.Procs[0].rngDraws++ }, differs},
		{"pending stop", func(f *World) { f.ScheduleStop(1, 99) }, differs},
		{"program byte", func(f *World) { f.Procs[1].Prog.(*rngCounter).Done++ }, differs},
		{"inbox", func(f *World) { f.Procs[0].inboxAdd(&Msg{ID: 1, To: 0}) }, differs},
		{"recovery layer", func(f *World) { f.Recovery = noopRecovery{} }, differs},
	}
	for _, c := range cases {
		f := fork()
		c.mutate(f)
		got := differs
		if off, ok := f.SameState(tmpl, progs); ok && off.Zero() {
			got = exact
		} else if ok {
			got = shifted
		}
		if got != c.want {
			t.Errorf("%s: SameState classed the fork %d, want %d (0 exact, 1 shifted, 2 differs)", c.name, got, c.want)
		}
	}
}

// appendCounter is rngCounter encoding its state through StateAppender, as
// every production program does, so comparing it needs no allocation.
type appendCounter struct{ rngCounter }

func (a *appendCounter) AppendState(dst []byte) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.N))
	return binary.LittleEndian.AppendUint64(dst, uint64(a.Done)), nil
}

func (a *appendCounter) Fork() (Program, error) { return &appendCounter{a.rngCounter}, nil }

// TestWorldSameStateAllocFree: a campaign compares each run with its
// template many times, so a warmed comparison allocates nothing, though the
// offsets it fills cross the StateComparer interface.
func TestWorldSameStateAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	w := NewWorld(3, &appendCounter{rngCounter{counter{N: 20}}}, &appendCounter{rngCounter{counter{N: 20}}})
	runToStep(t, w, 10)
	f, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := w.ProgramStates()
	if err != nil {
		t.Fatal(err)
	}
	shift(f, time.Second, 2)
	if off, ok := f.SameState(w, progs); !ok || off.Zero() {
		t.Fatalf("a shifted fork matched its template: ok=%v offsets=%+v", ok, off)
	}
	if n := testing.AllocsPerRun(100, func() { f.SameState(w, progs) }); n != 0 {
		t.Errorf("%v allocs per SameState, want 0", n)
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
	if _, ok := g.SameState(f, progs); ok {
		t.Error("a world one step short matched the template")
	}
	runToStep(t, g, 9)
	for _, x := range []*World{g, later} {
		if off, ok := x.SameState(f, progs); !ok || !off.Zero() {
			t.Errorf("a world stepped to the template's step count matched %v, %+v; want exactly", ok, off)
		}
	}
}

// TestWorldSameStateShiftedSuffix is the offset argument on a live world: a
// fork whose positions were all shifted runs on exactly as the template
// does, its clock, step counts and process positions ahead by the offsets
// SameState reported at every step, and its output the template's. Under a
// step or time limit, which reads absolute positions, it matches only
// exactly.
func TestWorldSameStateShiftedSuffix(t *testing.T) {
	w := NewWorld(3, &rngCounter{counter{N: 20}}, &rngCounter{counter{N: 12}})
	runToStep(t, w, 6)
	tmpl, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	shift(run, 5*time.Millisecond, 3)
	for {
		// Seal the template where it stands and compare: Fork freezes it,
		// so it carries on on the fork.
		next, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		progs, err := tmpl.ProgramStates()
		if err != nil {
			t.Fatal(err)
		}
		off, ok := run.SameState(tmpl, progs)
		if want := (Offsets{Clock: 5 * time.Millisecond, Steps: 3, Events: 3, Proc: 3}); !ok || off != want {
			t.Fatalf("at step %d: SameState = %v, %+v; want a match at %+v", tmpl.stepCount, ok, off, want)
		}
		tmpl = next
		m1, err1 := tmpl.Step()
		m2, err2 := run.Step()
		if err1 != nil || err2 != nil || m1 != m2 {
			t.Fatalf("template stepped (%v, %v), shifted run (%v, %v)", m1, err1, m2, err2)
		}
		if !m1 {
			break
		}
	}
	for i := range tmpl.Outputs {
		if !slices.Equal(run.Outputs[i], tmpl.Outputs[i]) {
			t.Errorf("process %d: shifted run output %q, template %q", i, run.Outputs[i], tmpl.Outputs[i])
		}
	}

	limited := NewWorld(3, &rngCounter{counter{N: 20}})
	limited.MaxSteps = 1000
	runToStep(t, limited, 4)
	f, err := limited.Fork()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := limited.ProgramStates()
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := f.SameState(limited, progs); !ok || !off.Zero() {
		t.Errorf("an untouched fork under a step limit: %v, %+v; want an exact match", ok, off)
	}
	shift(f, 0, 2)
	if _, ok := f.SameState(limited, progs); ok {
		t.Error("a shifted fork under a step limit matched")
	}
}

// TestSameStateCoversEveryField is the guard over World.SameState: every
// field of World, Proc and Ctx is compared exactly, compared as a position
// offset, or listed here as history or otherwise behaviour-neutral, with the
// reason.
func TestSameStateCoversEveryField(t *testing.T) {
	const (
		offset  = "offset: a position that only advances and that no step reads but to advance it, compared as a uniform shift"
		sink    = "observability sink: per-run harness wiring, never read by a step"
		scratch = "scratch buffer: rebuilt before every use"
		index   = "readiness-index bookkeeping: derived from the processes' status and wake, rebuilt after a fork"
		wiring  = "wiring to the owning world or process"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(World{}), map[string]string{
		"Procs": c, "Recovery": c, "OS": c, "Latency": c, "RecordTrace": c,
		"MaxTime": c, "MaxSteps": c, "ScanSched": c, "doneCount": c, "deadCount": c,
		"msgSeq": c, "seed": c, "inited": c,
		"Clock":      offset,
		"stepCount":  offset,
		"EventCount": offset,
		"Outputs":    "history; each process's output count is compared as an offset: a re-execution repeats visible outputs",
		"outProc":    "history; its length is the sum of the output counts",
		"Trace":      "history: the events recorded so far never steer a step",
		"clockReads": "history: the guard reads a template's count at two points, never a step",
		"Faults":     "per-run harness wiring; the caller establishes that its injectors agree from here on",
		"Metrics":    sink,
		"Tracer":     sink,
		"DebugLog":   sink,
		"sched":      index,
		"schedMask":  index,
		"schedShift": index,
		"schedCur":   index,
		"schedDue":   index,
		"schedTail":  index,
		"schedLen":   index,
		"schedStale": index,
		"schedBuilt": index,
		"msgBlock":   "message arena: storage for messages, which compare by value",
		"byteBlock":  "byte arena: storage for payloads, which compare by value, and Outputs strings, which compare by count",
		"ndBuf":      scratch,
		"argv":       scratch,
		"sameOff":    scratch,
		"frozen":     "copy-on-write bookkeeping: a sealed template and its fork differ only here",
	})
	fieldguard.Check(t, reflect.TypeOf(Proc{}), map[string]string{
		"Index": c, "Prog": c, "status": c, "inbox": c, "retained": c, "rngSeed": c,
		"rngDraws": c, "InputCursor": c, "SendSeq": c, "RecvHW": c,
		"stops": c, "signals": c, "dead": c, "ctx": c,
		"Steps":       offset,
		"Crashes":     offset,
		"wake":        "a clock position: compared shifted by the clock offset",
		"redelivered": "receive-scoped: handed back and consumed within one Recv, nil between steps",
		"events":      "observability: event counters a step only increments and never reads; EnableObs zeroes them and a fork starts them at zero",
		"World":       wiring,
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
