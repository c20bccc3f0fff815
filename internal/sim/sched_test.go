package sim

import (
	"fmt"
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
// the index through every transition (push, remove, move-up, move-down).
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
// consuming the pick; the indexed peek must leave the heap intact so the
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

// TestSchedRequeueRearmsBlockedProc: RequeueRetained makes a message-blocked
// process with an empty inbox runnable again (its replay queue now feeds
// Recv); the index must pick it up without any inbox traffic.
func TestSchedRequeueRearmsBlockedProc(t *testing.T) {
	// Ponger consumes two pings, then its partner finishes; a rollback
	// re-arms redelivery of the consumed messages.
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
	if len(ponger.retained) == 0 {
		t.Fatal("ponger retained no messages; test premise broken")
	}
	w.RequeueRetained(ponger)
	at, ok := w.readyAt(ponger)
	if !ok {
		t.Fatal("RequeueRetained did not make the ponger runnable")
	}
	// Step until the ponger consumes a redelivered message. (A step that
	// finds the replay head not yet position-due records no event; the
	// divergence fallback then flushes the queue to the inbox.)
	before := ponger.Steps
	for i := 0; i < 4 && ponger.Steps == before; i++ {
		more, err := w.Step()
		if err != nil || !more {
			t.Fatalf("step after requeue: more=%v err=%v", more, err)
		}
	}
	if ponger.Steps == before {
		t.Fatal("requeued process was never scheduled")
	}
	if w.Clock < at {
		t.Fatalf("clock %v did not advance to the requeued readyAt %v", w.Clock, at)
	}
}

// TestSchedRequeueLoggedRearmsBlockedProc: RequeueLogged re-injects a
// logged message through inboxAdd, whose invalidation hook must wake the
// index for a process that was out of the heap entirely.
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
	w.RequeueLogged(ponger, record)
	if _, ok := w.readyAt(ponger); !ok {
		t.Fatal("RequeueLogged did not make the ponger runnable")
	}
	before := ponger.Steps
	for i := 0; i < 4 && ponger.Steps == before; i++ {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("step after RequeueLogged: more=%v err=%v", more, err)
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

// TestSchedLenTracksActive: SchedLen is the "active" in O(active) — it
// counts runnable processes, not fleet size.
func TestSchedLenTracksActive(t *testing.T) {
	w := NewWorld(6, &counter{N: 2}, &counter{N: 2}, &pinger{Rounds: 1}, &ponger{Max: 1})
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if got := w.SchedLen(); got == 0 || got > len(w.Procs) {
		t.Fatalf("SchedLen = %d, want within (0, %d]", got, len(w.Procs))
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
	// Drained: one final pick observed an empty heap.
	if got := w.SchedLen(); got != 0 {
		t.Fatalf("SchedLen after drain = %d, want 0", got)
	}
}
