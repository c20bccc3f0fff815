package treadmarks

import (
	"encoding/binary"
	"fmt"
	"testing"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// counterWorker increments a shared counter (8 bytes at the start of page
// 0) Rounds times, each under the global lock: acquire → fault in the page
// → read-modify-write → release. It is the canonical mutual-exclusion
// workload for the DSM's lock primitive.
type counterWorker struct {
	DSM    *dsm
	Rounds int
	I      int
	Phase  int // 0 acquire, 1 fault/incr, 2 release, 3 barrier, 4 report, 5 done
}

func newCounterFleet(nprocs, rounds int) []sim.Program {
	progs := make([]sim.Program, 0, nprocs)
	for me := 0; me < nprocs; me++ {
		progs = append(progs, &counterWorker{DSM: newDSM(me, nprocs, 1), Rounds: rounds})
	}
	return progs
}

func (c *counterWorker) Name() string            { return fmt.Sprintf("counter%d", c.DSM.Me) }
func (c *counterWorker) Init(ctx *sim.Ctx) error { return nil }

func (c *counterWorker) Step(ctx *sim.Ctx) sim.Status {
	if len(c.DSM.Outbox) > 0 {
		om := c.DSM.Outbox[0]
		var e apputil.Enc
		om.Msg.appendTo(&e)
		if err := ctx.Send(om.To, e.B); err != nil {
			ctx.Crash(err.Error())
			return sim.Crashed
		}
		c.DSM.popOutbox() // pop after the send (commit contract)
		return sim.Ready
	}
	if c.DSM.AwaitPage >= 0 || c.DSM.BarrierWaiting || c.DSM.LockWaiting || c.Phase == 5 {
		if m, ok := ctx.Recv(); ok {
			dm, err := decodeMsg(m.Payload)
			if err != nil {
				ctx.Crash(err.Error())
				return sim.Crashed
			}
			if err := c.DSM.Handle(dm); err != nil {
				ctx.Crash(err.Error())
				return sim.Crashed
			}
			return sim.Ready
		}
		if c.Phase == 5 {
			return sim.Done
		}
		return sim.WaitMsg
	}
	switch c.Phase {
	case 0:
		if c.I >= c.Rounds {
			// Wait for every process to finish incrementing before
			// the final read.
			c.Phase = 3
			c.DSM.EnterBarrier()
			return sim.Ready
		}
		c.DSM.AcquireLock(0)
		c.Phase = 1
		return sim.Ready
	case 1:
		if !c.DSM.Have(0) {
			c.DSM.Fault(0)
			return sim.Ready
		}
		buf := c.DSM.Pages[0]
		v := binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, v+1)
		c.I++
		c.Phase = 2
		return sim.Ready
	case 2:
		c.DSM.ReleaseLock(0)
		c.Phase = 0
		return sim.Ready
	case 3: // past barrier 1: the coordinator reads and reports while
		// the peers wait at barrier 2, still serving transfers.
		if c.DSM.Me != 0 {
			c.Phase = 4
			c.DSM.EnterBarrier()
			return sim.Ready
		}
		if !c.DSM.Have(0) {
			c.DSM.Fault(0)
			return sim.Ready
		}
		v := binary.LittleEndian.Uint64(c.DSM.Pages[0])
		ctx.Output(fmt.Sprintf("counter=%d", v))
		c.Phase = 4
		c.DSM.EnterBarrier()
		return sim.Ready
	default: // past barrier 2
		c.Phase = 5
		return sim.Done
	}
}

func (c *counterWorker) MarshalState() ([]byte, error) {
	var e apputil.Enc
	c.DSM.marshal(&e)
	e.Int(c.Rounds)
	e.Int(c.I)
	e.Int(c.Phase)
	return e.B, nil
}

func (c *counterWorker) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	dsmState, err := unmarshalDSM(&d)
	if err != nil {
		return err
	}
	c.DSM = dsmState
	c.Rounds = d.Int()
	c.I = d.Int()
	c.Phase = d.Int()
	return d.Err
}

// TestLockMutualExclusion: 4 processes × 25 increments under the lock must
// total exactly 100 — lost updates would show ownership races.
func TestLockMutualExclusion(t *testing.T) {
	w := sim.NewWorld(17, newCounterFleet(4, 25)...)
	w.MaxSteps = 2_000_000
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		for _, p := range w.Procs {
			t.Logf("%s: %v", p.Prog.Name(), p.Status())
		}
		t.Fatal("fleet did not finish")
	}
	if len(w.Outputs[0]) != 1 || w.Outputs[0][0] != "counter=100" {
		t.Errorf("outputs = %v, want counter=100", w.Outputs[0])
	}
}

// TestLockFIFOUnderContention: the manager's FIFO queue serves waiters in
// arrival order (observable as a deadlock-free, complete run even with
// all four contending every round).
func TestLockFIFOUnderContention(t *testing.T) {
	w := sim.NewWorld(23, newCounterFleet(4, 40)...)
	w.MaxSteps = 4_000_000
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("contended run did not finish")
	}
	if w.Outputs[0][0] != "counter=160" {
		t.Errorf("counter = %v, want 160", w.Outputs[0])
	}
}

// TestLocksSurviveStopFailures: crashes of both a lock holder and the lock
// manager's clients must not lose increments under CPVS.
func TestLocksSurviveStopFailures(t *testing.T) {
	for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CANDLog} {
		w := sim.NewWorld(17, newCounterFleet(4, 20)...)
		w.MaxSteps = 4_000_000
		d := dc.New(w, pol, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(1, 30)
		w.ScheduleStop(2, 90)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			for _, p := range w.Procs {
				t.Logf("%s: %v crashes=%d", p.Prog.Name(), p.Status(), p.Crashes)
			}
			t.Fatalf("%s: fleet did not finish after failures", pol.Name)
		}
		if d.Stats.Recoveries < 2 {
			t.Errorf("%s: recoveries = %d", pol.Name, d.Stats.Recoveries)
		}
		if got := w.Outputs[0][len(w.Outputs[0])-1]; got != "counter=80" {
			t.Errorf("%s: final %q, want counter=80 (no lost or doubled increments)", pol.Name, got)
		}
	}
}

func TestLockStateMarshalRoundTrip(t *testing.T) {
	d := newDSM(0, 4, 1)
	d.AcquireLock(3)
	d.LockQueue[3] = []int{2, 1}
	d.LockOwner[5] = 2
	var e apputil.Enc
	d.marshal(&e)
	got, err := unmarshalDSM(&apputil.Dec{B: e.B})
	if err != nil {
		t.Fatal(err)
	}
	if !got.HeldLocks[3] || got.LockOwner[5] != 2 || len(got.LockQueue[3]) != 2 {
		t.Errorf("lock state diverged: %+v", got)
	}
}
