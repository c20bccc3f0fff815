package sim

import (
	"fmt"
	"testing"
	"time"
)

// rollbackStub is the smallest recovery layer that redelivers: it holds each
// process's image from before the run and, on a crash, restores it, takes
// the messages consumed since over and hands each back to the receive that
// reaches its position again — dc's rollback without commits or a log.
type rollbackStub struct {
	noopRecovery
	w    *World
	imgs [][]byte
	// base is each process's Steps at its restore point; redo the messages
	// taken over and not yet handed back, their At relative to base.
	base []int
	redo [][]Retained
}

func (r *rollbackStub) OnCrash(p *Proc, reason string) bool {
	if err := p.RestoreCheckpointImage(r.imgs[p.Index]); err != nil {
		return false
	}
	taken := r.w.TakeRetained(p)
	for i := range taken {
		taken[i].At -= r.base[p.Index]
	}
	r.redo[p.Index] = append(taken, r.redo[p.Index]...)
	r.base[p.Index] = p.Steps
	return true
}

func (r *rollbackStub) SupplyND(p *Proc, label string) ([]byte, bool) {
	q := r.redo[p.Index]
	if label != "recv" || len(q) == 0 {
		return nil, false
	}
	switch rel := p.Steps - r.base[p.Index]; {
	case rel == q[0].At:
		r.w.Redeliver(p, q[0].Msg)
		q[0] = Retained{}
		r.redo[p.Index] = q[1:]
		return nil, false
	case rel < q[0].At:
		return nil, true
	}
	return nil, false
}

// checkVacatedNil fails unless every slot past the length of each process's
// inbox and retained list is nil, and no handed-back message is left
// unconsumed: a consumed message must not stay reachable from a queue it
// left.
func checkVacatedNil(t *testing.T, w *World) {
	t.Helper()
	for _, p := range w.Procs {
		for i, m := range p.inbox[len(p.inbox):cap(p.inbox)] {
			if m != nil {
				t.Errorf("p%d inbox slot len+%d still holds message %d", p.Index, i, m.ID)
			}
		}
		for i, r := range p.retained[len(p.retained):cap(p.retained)] {
			if r.Msg != nil {
				t.Errorf("p%d retained slot len+%d still holds message %d", p.Index, i, r.Msg.ID)
			}
		}
		if p.redelivered != nil {
			t.Errorf("p%d still holds handed-back message %d", p.Index, p.redelivered.ID)
		}
	}
}

// TestDuplicateFilterUnderRecovery: a rolled-back sender re-executes its
// sends with the send indexes it used before, and under a recovery layer
// the receiver drops the re-sent duplicate of a message it already
// consumed, then takes the sender's next new message.
func TestDuplicateFilterUnderRecovery(t *testing.T) {
	w := NewWorld(1, &counter{}, &counter{})
	w.RecordTrace = false
	w.Recovery = noopRecovery{}
	sender, receiver := w.Procs[0], w.Procs[1]
	send := func(payload string) {
		t.Helper()
		if err := sender.Ctx().Send(1, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		w.Clock += time.Second // delivered
	}
	send("first")
	if m, ok := receiver.Ctx().Recv(); !ok || string(m.Payload) != "first" {
		t.Fatalf("recv = %q, %v; want first", m.Payload, ok)
	}
	sender.SendSeq = 0 // the sender rolls back past the send and re-executes it
	send("first")
	if m, ok := receiver.Ctx().Recv(); ok {
		t.Fatalf("the duplicate %q (send index %d) was delivered", m.Payload, m.SendIdx)
	}
	if len(receiver.inbox) != 0 {
		t.Errorf("the duplicate stayed in the inbox (%d messages)", len(receiver.inbox))
	}
	checkVacatedNil(t, w)
	send("second")
	if m, ok := receiver.Ctx().Recv(); !ok || string(m.Payload) != "second" {
		t.Fatalf("recv = %q, %v; want second", m.Payload, ok)
	}
}

// TestRetentionOnlyUnderRecovery: a world without a recovery layer cannot
// roll back, so it keeps no consumed message; with one, consumed messages
// are retained and a rollback redelivers them at their original positions.
// Either way no queue pins a message it no longer holds.
func TestRetentionOnlyUnderRecovery(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		w := NewWorld(11, &pinger{Rounds: 3}, &ponger{Max: 3})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Fatal("ping-pong did not finish")
		}
		for _, p := range w.Procs {
			if p.retained != nil {
				t.Errorf("p%d retained %d messages (cap %d) without a recovery layer", p.Index, len(p.retained), cap(p.retained))
			}
		}
		checkVacatedNil(t, w)
	})

	t.Run("stub", func(t *testing.T) {
		w := NewWorld(11, &pinger{Rounds: 3}, &ponger{Max: 3})
		stub := &rollbackStub{w: w, base: make([]int, 2), redo: make([][]Retained, 2)}
		w.Recovery = stub
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Procs {
			img, err := p.CheckpointImage(false)
			if err != nil {
				t.Fatal(err)
			}
			stub.imgs = append(stub.imgs, img)
			stub.base[p.Index] = p.Steps
		}
		// Crash the pinger after two rounds (send, recv, output each): the
		// ponger has echoed its last pong but one, and filters the re-sent
		// pings as duplicates, so only redelivery can finish the run.
		w.ScheduleStop(0, 6)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		p := w.Procs[0]
		if p.Crashes != 1 || !w.AllDone() {
			t.Fatalf("crashes=%d done=%v: the rollback did not complete the run", p.Crashes, w.AllDone())
		}
		want := "[pong: ping 0 pong: ping 1 pong: ping 0 pong: ping 1 pong: ping 2]"
		if got := fmt.Sprint(w.Outputs[0]); got != want {
			t.Errorf("pinger output %s, want %s", got, want)
		}
		// A handed-back message is consumed like a live one: retained again,
		// at the position of its new receive.
		if len(p.retained) != 3 {
			t.Fatalf("pinger retains %d messages, want 3 (two redelivered, one live)", len(p.retained))
		}
		for i, r := range p.retained[:2] {
			if r.At-stub.base[0] != 3*i+1 {
				t.Errorf("redelivered message %d retained at relative position %d, want %d", i, r.At-stub.base[0], 3*i+1)
			}
		}
		if len(stub.redo[0]) != 0 {
			t.Errorf("%d taken-over messages never handed back", len(stub.redo[0]))
		}
		checkVacatedNil(t, w)
	})
}
