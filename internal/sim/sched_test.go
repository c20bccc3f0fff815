package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// This file pins the readiness index (sched.go) to the legacy scan: the
// edge cases where the two could plausibly diverge — ties, limit
// boundaries, wake clamping, fork rebuilds, redelivery arming — plus the
// hot-path allocation budget the //failtrans:hotpath annotations promise.

// twoWorlds runs the same program set under the scan and the indexed
// scheduler and returns both finished worlds.
func twoWorlds(t *testing.T, seed int64, build func() []Program) (scan, indexed *World) {
	t.Helper()
	scan = NewWorld(seed, build()...)
	scan.ScanSched = true
	indexed = NewWorld(seed, build()...)
	indexed.ScanSched = false
	if err := scan.Run(); err != nil {
		t.Fatal(err)
	}
	if err := indexed.Run(); err != nil {
		t.Fatal(err)
	}
	return scan, indexed
}

// assertSameSchedule fails unless the two worlds took byte-identical
// schedules: same trace, outputs, clock and per-process step counts.
func assertSameSchedule(t *testing.T, scan, indexed *World) {
	t.Helper()
	if scan.Clock != indexed.Clock || scan.StepCount() != indexed.StepCount() {
		t.Fatalf("scan clock=%v steps=%d, indexed clock=%v steps=%d",
			scan.Clock, scan.StepCount(), indexed.Clock, indexed.StepCount())
	}
	if got, want := fmt.Sprint(indexed.GlobalOutputs()), fmt.Sprint(scan.GlobalOutputs()); got != want {
		t.Fatalf("visible output diverged:\nscan:    %s\nindexed: %s", want, got)
	}
	if got, want := fmt.Sprint(indexed.Trace.Events), fmt.Sprint(scan.Trace.Events); got != want {
		t.Fatal("event traces diverged between scan and indexed schedulers")
	}
	for i := range scan.Procs {
		if scan.Procs[i].Steps != indexed.Procs[i].Steps {
			t.Fatalf("proc %d: scan %d steps, indexed %d",
				i, scan.Procs[i].Steps, indexed.Procs[i].Steps)
		}
	}
}

// TestSchedTieLowestPid: with every process permanently tied at the same
// readyAt, the index must reproduce the scan's lowest-pid-first order for
// arbitrarily many contenders, not just two.
func TestSchedTieLowestPid(t *testing.T) {
	scan, indexed := twoWorlds(t, 5, func() []Program {
		progs := make([]Program, 5)
		for i := range progs {
			progs[i] = &counter{N: 4}
		}
		return progs
	})
	assertSameSchedule(t, scan, indexed)
	// First scheduling round is pid-ascending: all five start tied at 0.
	for i := 0; i < 5; i++ {
		if got := scan.Trace.Events[i].ID.P; got != i {
			t.Fatalf("tie round pick %d = proc %d, want %d", i, got, i)
		}
	}
}

// TestSchedMixedWorkloadIdentical: messages, sleeps and terminations churn
// the index through every transition (insert, delete, re-key, drain).
func TestSchedMixedWorkloadIdentical(t *testing.T) {
	scan, indexed := twoWorlds(t, 9, func() []Program {
		return []Program{
			&pinger{Rounds: 6},
			&ponger{Max: 6},
			&sleeper{},
			&counter{N: 10},
		}
	})
	assertSameSchedule(t, scan, indexed)
	if !indexed.AllDone() {
		t.Fatal("mixed workload did not finish")
	}
}

// TestSchedDelayClampsWakeIntoPresent: Delay clamps a wake that would land
// in the past to the current clock, and the index re-keys the process so it
// is immediately schedulable — identically to the scan.
func TestSchedDelayClampsWakeIntoPresent(t *testing.T) {
	for _, scanSched := range []bool{true, false} {
		w := NewWorld(2, &sleeper{}, &counter{N: 2})
		w.ScanSched = scanSched
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		// Run until the sleeper parks 100ms out.
		for w.Procs[0].Status() != Sleeping {
			if more, err := w.Step(); err != nil || !more {
				t.Fatalf("more=%v err=%v before sleeper parked", more, err)
			}
		}
		p := w.Procs[0]
		// Pull the wake far into the past; Delay must clamp to now.
		w.Delay(p, -time.Hour)
		if p.wake != w.Clock {
			t.Fatalf("sched=%v: wake = %v, want clamp to clock %v", scanSched, p.wake, w.Clock)
		}
		at, ok := w.readyAt(p)
		if !ok || at != w.Clock {
			t.Fatalf("sched=%v: readyAt = %v/%v, want %v/true", scanSched, at, ok, w.Clock)
		}
		before := p.Steps
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("sched=%v: step after clamp: more=%v err=%v", scanSched, more, err)
		}
		if p.Steps != before+1 {
			t.Fatalf("sched=%v: clamped process was not the next pick", scanSched)
		}
	}
}

// TestSchedMaxTimeBoundary: hitting MaxTime returns false without
// consuming the pick; the indexed peek must leave the index intact so the
// refusal is repeatable and the scan-identical step/clock state survives.
func TestSchedMaxTimeBoundary(t *testing.T) {
	run := func(scanSched bool) *World {
		w := NewWorld(3, &sleeper{}, &sleeper{})
		w.ScanSched = scanSched
		w.MaxTime = 150 * time.Millisecond
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	scan, indexed := run(true), run(false)
	if scan.Clock != indexed.Clock || scan.StepCount() != indexed.StepCount() {
		t.Fatalf("scan clock=%v steps=%d, indexed clock=%v steps=%d",
			scan.Clock, scan.StepCount(), indexed.Clock, indexed.StepCount())
	}
	if indexed.AllDone() {
		t.Fatal("MaxTime should have cut the run short")
	}
	// The refusal is stable: stepping again keeps returning false with no
	// error and no state change (the pick was peeked, not popped).
	for i := 0; i < 3; i++ {
		steps, clock := indexed.StepCount(), indexed.Clock
		more, err := indexed.Step()
		if more || err != nil {
			t.Fatalf("step %d past MaxTime: more=%v err=%v", i, more, err)
		}
		if indexed.StepCount() != steps || indexed.Clock != clock {
			t.Fatalf("step %d past MaxTime mutated the world", i)
		}
	}
}

// TestSchedMaxStepsBoundary: the step budget trips at the same decision
// under either scheduler.
func TestSchedMaxStepsBoundary(t *testing.T) {
	run := func(scanSched bool) (int, error) {
		w := NewWorld(3, &counter{N: 1 << 20})
		w.ScanSched = scanSched
		w.MaxSteps = 25
		return w.StepCount(), w.Run()
	}
	_, errScan := run(true)
	_, errIdx := run(false)
	if errScan == nil || errIdx == nil {
		t.Fatalf("want step-budget errors, got scan=%v indexed=%v", errScan, errIdx)
	}
	if errScan.Error() != errIdx.Error() {
		t.Fatalf("error text diverged: scan %q, indexed %q", errScan, errIdx)
	}
}

// fpinger/fponger are forkable variants of the ping-pong pair.
type fpinger struct{ pinger }

func (p *fpinger) Fork() (Program, error) { return &fpinger{pinger: p.pinger}, nil }

type fponger struct{ ponger }

func (p *fponger) Fork() (Program, error) { return &fponger{ponger: p.ponger}, nil }

// TestSchedForkRearms: a forked world starts with no index (schedBuilt is
// reset) and rebuilds on its first decision; forks of the same template
// finish identically whichever scheduler each uses.
func TestSchedForkRearms(t *testing.T) {
	w := NewWorld(13, &fpinger{pinger{Rounds: 5}}, &fponger{ponger{Max: 5}}, &rngCounter{counter{N: 8}})
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	// Run halfway so the parent's index is live and mid-churn.
	for i := 0; i < 10; i++ {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("parent step %d: more=%v err=%v", i, more, err)
		}
	}
	forkA, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	forkB, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	forkA.ScanSched = true
	forkB.ScanSched = false
	if err := forkA.Run(); err != nil {
		t.Fatal(err)
	}
	if err := forkB.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, forkA, forkB)
	if !forkB.AllDone() {
		t.Fatal("fork did not finish")
	}
	// Fork sealed the parent: its run carries on only on a fork.
	if _, err := w.Step(); err == nil {
		t.Fatal("a forked parent stepped again")
	}
}

// TestSchedRequeueRearmsBlockedProc: a diverged re-execution requeues the
// retained receives it will not be handed back; that makes a message-blocked
// process with an empty inbox runnable again, and the index must pick it up
// through the inbox's invalidation hook.
func TestSchedRequeueRearmsBlockedProc(t *testing.T) {
	// Ponger consumes two pings, then its partner finishes; a rollback
	// takes the consumed messages over and requeues them.
	w := NewWorld(21, &pinger{Rounds: 2}, &ponger{Max: 4})
	w.Recovery = noopRecovery{}
	for {
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	ponger := w.Procs[1]
	if ponger.Status() != WaitMsg {
		t.Fatalf("ponger status = %v, want WaitMsg", ponger.Status())
	}
	if _, ok := w.readyAt(ponger); ok {
		t.Fatal("blocked ponger with drained inbox should not be runnable")
	}
	taken := w.TakeRetained(ponger)
	if len(taken) == 0 {
		t.Fatal("ponger retained no messages; test premise broken")
	}
	// Rollback contract: the recovery layer restores the checkpointed
	// RecvHW (here: pre-consumption) before requeueing, or Recv dedups the
	// requeued messages as re-executed duplicates.
	ponger.RecvHW = nil
	ms := make([]Msg, len(taken))
	for i, r := range taken {
		ms[i] = *r.Msg
	}
	w.Requeue(ponger, ms)
	at, ok := w.readyAt(ponger)
	if !ok {
		t.Fatal("Requeue did not make the ponger runnable")
	}
	before := ponger.Steps
	for i := 0; i < 4 && ponger.Steps == before; i++ {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("step after Requeue: more=%v err=%v", more, err)
		}
	}
	if ponger.Steps == before {
		t.Fatal("requeued process was never scheduled")
	}
	if w.Clock < at {
		t.Fatalf("clock %v did not advance to the requeued readyAt %v", w.Clock, at)
	}
}

// TestSchedRequeueLoggedRearmsBlockedProc: Requeue of a message rebuilt from
// a receive-log record goes through the inbox's invalidation hook, which
// must wake the index for a process that was out of the index entirely.
func TestSchedRequeueLoggedRearmsBlockedProc(t *testing.T) {
	w := NewWorld(22, &pinger{Rounds: 1}, &ponger{Max: 3})
	for {
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	ponger := w.Procs[1]
	if _, ok := w.readyAt(ponger); ok {
		t.Fatal("ponger should be blocked before reinjection")
	}
	// SendIdx must clear the receive high-water mark or Recv dedups the
	// reinjected record as a re-executed duplicate.
	record := AppendMsgRecord(nil, Msg{From: 0, To: 1, SendIdx: 99, Payload: []byte("replayed ping")})
	w.Requeue(ponger, []Msg{DecodeMsgRecord(record)})
	if _, ok := w.readyAt(ponger); !ok {
		t.Fatal("Requeue did not make the ponger runnable")
	}
	before := ponger.Steps
	for i := 0; i < 4 && ponger.Steps == before; i++ {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("step after Requeue: more=%v err=%v", more, err)
		}
	}
	if ponger.Steps == before {
		t.Fatal("reinjected process was never scheduled")
	}
}

// napper parks for a fixed interval every step, forever: the steady-state
// scheduling workload for the allocation pin.
type napper struct{ counter }

func (n *napper) Step(ctx *Ctx) Status {
	ctx.Sleep(time.Millisecond)
	return Sleeping
}

// TestSchedStepAllocFree pins the //failtrans:hotpath promise: with
// tracing off, a steady-state scheduling decision — pick, program step,
// reindex — performs zero heap allocations under either scheduler.
func TestSchedStepAllocFree(t *testing.T) {
	for _, scanSched := range []bool{true, false} {
		progs := make([]Program, 64)
		for i := range progs {
			progs[i] = &napper{}
		}
		w := NewWorld(4, progs...)
		w.ScanSched = scanSched
		w.RecordTrace = false
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		// Warm up past the lazy index build and stale-list growth.
		for i := 0; i < 3*len(progs); i++ {
			if more, err := w.Step(); err != nil || !more {
				t.Fatalf("warmup step %d: more=%v err=%v", i, more, err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if more, err := w.Step(); err != nil || !more {
				t.Fatalf("more=%v err=%v", more, err)
			}
		})
		if allocs != 0 {
			t.Errorf("scanSched=%v: %v allocs per Step, want 0", scanSched, allocs)
		}
	}
}

// TestProcHotFieldsFirst pins Proc's hot-first layout: everything a
// scheduling decision, a send and a receive read or write, the inline Ctx's
// per-step scalars included, lies in the process's first 192 bytes, so a
// field added later cannot silently push the hot set onto a fourth cache
// line. The hot set is named here, and each field it lists must exist.
func TestProcHotFieldsFirst(t *testing.T) {
	const hotBytes = 192
	hot := func(typ reflect.Type, base uintptr, names ...string) {
		t.Helper()
		for _, name := range names {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Errorf("%s has no field %s", typ.Name(), name)
				continue
			}
			if end := base + f.Offset + f.Type.Size(); end > hotBytes {
				t.Errorf("%s.%s ends at byte %d of Proc, past the first %d", typ.Name(), name, end, hotBytes)
			}
		}
	}
	proc := reflect.TypeOf(Proc{})
	hot(proc, 0, "Index", "Prog", "World", "status", "wake",
		"schedAt", "schedNext", "schedPrev", "schedDirty",
		"dead", "inboxMinOK", "inboxMin", "inbox", "stops", "Steps", "RecvHW", "SendSeq")
	ctx, _ := proc.FieldByName("ctx")
	hot(reflect.TypeOf(Ctx{}), ctx.Offset, "p", "elapsed", "sleepFor", "crashed")
	t.Logf("Proc is %d bytes; its Ctx starts at byte %d", proc.Size(), ctx.Offset)
}

// TestSchedLenTracksActive: schedLen, the readiness index's size, is the
// "active" in O(active) — it counts runnable processes, not fleet size.
func TestSchedLenTracksActive(t *testing.T) {
	w := NewWorld(6, &counter{N: 2}, &counter{N: 2}, &pinger{Rounds: 1}, &ponger{Max: 1})
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if got := w.schedLen; got == 0 || got > len(w.Procs) {
		t.Fatalf("schedLen = %d, want within (0, %d]", got, len(w.Procs))
	}
	for {
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	// Drained: one final pick observed an empty index.
	if got := w.schedLen; got != 0 {
		t.Fatalf("schedLen after drain = %d, want 0", got)
	}
}

// fnapper is a forkable napper.
type fnapper struct{ napper }

func (n *fnapper) Fork() (Program, error) { return &fnapper{}, nil }

// TestSchedForkFirstStepAllocs pins what a campaign-style fork of a
// one-process world allocates up to and including its first step: the
// world, its Outputs and Procs, the proc slab, the program, the readiness
// index's one buffer and the stale list.
func TestSchedForkFirstStepAllocs(t *testing.T) {
	w := NewWorld(8, &fnapper{})
	w.RecordTrace = false
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("template step %d: more=%v err=%v", i, more, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		f, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if more, err := f.Step(); err != nil || !more {
			t.Fatalf("fork step: more=%v err=%v", more, err)
		}
	})
	if allocs != 7 {
		t.Errorf("fork + first step: %v allocs, want 7", allocs)
	}
}

// decision is one scheduling decision: the stepped process and the clock.
type decision struct {
	pid   int
	clock time.Duration
}

// scripted runs a byte script, two bytes a step: an op and its argument.
// Its sleeps are zero, sub-µs or jumps of up to 2^39 ns, which widen the
// readiness index's buckets several times over and wrap its ring; its sends
// reach peers whose own compute has put their wake-ups past the message's
// delivery time. Every step appends its decision to a log the world's
// programs share.
type scripted struct {
	script []byte
	peers  int
	pc     int
	log    *[]decision
}

func (s *scripted) Name() string                  { return "scripted" }
func (s *scripted) Init(ctx *Ctx) error           { return nil }
func (s *scripted) MarshalState() ([]byte, error) { return nil, nil }
func (s *scripted) UnmarshalState([]byte) error   { return nil }

func (s *scripted) Step(ctx *Ctx) Status {
	*s.log = append(*s.log, decision{ctx.p.Index, ctx.NowVirtual()})
	if s.pc+1 >= len(s.script) {
		return Done
	}
	op, arg := s.script[s.pc], int(s.script[s.pc+1])
	switch op % 6 {
	case 0: // runnable again at once
	case 1: // sub-µs nap
		ctx.Sleep(time.Duration(arg) * 3)
	case 2: // a jump of 2^10..2^39 ns
		ctx.Sleep(time.Duration(1) << (10 + arg%30))
	case 3: // send after 0–310 µs of compute, so deliveries arrive out of order
		ctx.Compute(time.Duration(arg>>3) * 10 * time.Microsecond)
		if err := ctx.Send(arg%s.peers, []byte{op}); err != nil {
			ctx.Crash(err.Error())
			return Crashed
		}
	case 4: // block until a message is delivered
		if _, ok := ctx.Recv(); !ok {
			return WaitMsg
		}
	case 5: // compute past the peers' sends
		ctx.Compute(time.Duration(arg) * 997 * time.Nanosecond)
	}
	s.pc += 2
	if op%6 == 1 || op%6 == 2 {
		return Sleeping
	}
	return Ready
}

// FuzzSchedMatchesScan runs up to eight scripted programs, cut from the
// input, under the readiness index and under the scan, and requires the
// same (pid, Clock) decision sequence from both.
func FuzzSchedMatchesScan(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 9, 2, 5, 4, 0, 0, 0, 0, 2, 29, 1, 200})
	f.Add([]byte{7, 2, 20, 2, 21, 2, 22, 3, 1, 4, 0, 5, 255, 0, 0, 1, 7, 2, 29, 3, 0, 4, 4})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 2})
	f.Add([]byte{4, 3, 1, 3, 2, 3, 3, 4, 0, 4, 0, 5, 200, 2, 5, 4, 0, 1, 250, 2, 15, 0, 0, 2, 25, 3, 0, 4, 0})
	// Eight programs napping in lockstep: every bucket holds ties.
	f.Add(append([]byte{7}, bytes.Repeat([]byte{1, 7}, 8*40)...))
	// Longer random scripts: ring wrap-arounds, and without the jumps,
	// which widen the buckets past the message latency, waiting receivers
	// re-keyed inside their buckets.
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{200, 600, 1200} {
		seed := make([]byte, n)
		r.Read(seed)
		f.Add(seed)
		short := slices.Clone(seed)
		for i := 1; i < len(short); i += 2 {
			short[i] = []byte{0, 1, 3, 3, 4, 4, 5}[short[i]%7]
		}
		f.Add(short)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		k := 1 + int(data[0])%8
		script := data[1:]
		run := func(scan bool) ([]decision, *World) {
			var log []decision
			progs := make([]Program, k)
			for i := range progs {
				// Program i takes every k-th two-byte step of the script.
				var own []byte
				for j := 2 * i; j+1 < len(script); j += 2 * k {
					own = append(own, script[j], script[j+1])
				}
				progs[i] = &scripted{script: own, peers: k, log: &log}
			}
			w := NewWorld(int64(k), progs...)
			w.ScanSched = scan
			w.RecordTrace = false
			w.MaxSteps = 1 << 16
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			return log, w
		}
		scanLog, scanW := run(true)
		idxLog, idxW := run(false)
		if len(scanLog) != len(idxLog) {
			t.Fatalf("scan took %d decisions, index %d", len(scanLog), len(idxLog))
		}
		for i := range scanLog {
			if scanLog[i] != idxLog[i] {
				t.Fatalf("decision %d: scan %+v, index %+v", i, scanLog[i], idxLog[i])
			}
		}
		if scanW.Clock != idxW.Clock || scanW.AllDone() != idxW.AllDone() {
			t.Fatalf("scan ended at %v done=%v, index at %v done=%v",
				scanW.Clock, scanW.AllDone(), idxW.Clock, idxW.AllDone())
		}
	})
}
