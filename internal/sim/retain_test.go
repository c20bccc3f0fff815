package sim

import (
	"fmt"
	"testing"
	"time"
)

// rollbackStub is the smallest recovery layer that redelivers: it holds each
// process's image from before the run and, on a crash, restores it and
// requeues the messages consumed since — dc's rollback without commits.
type rollbackStub struct {
	noopRecovery
	w    *World
	imgs [][]byte
	// replay is the replay queue's whole backing array as the rollback
	// armed it, kept to check that consuming the queue empties it.
	replay []retainedMsg
}

func (r *rollbackStub) OnCrash(p *Proc, reason string) bool {
	if err := p.RestoreCheckpointImage(r.imgs[p.Index]); err != nil {
		return false
	}
	r.w.RequeueRetained(p)
	r.replay = p.replayQueue[:cap(p.replayQueue)]
	return true
}

// checkVacatedNil fails unless every slot past the length of each process's
// inbox, retained list and replay queue is nil: a consumed message must not
// stay reachable from a queue it left.
func checkVacatedNil(t *testing.T, w *World) {
	t.Helper()
	for _, p := range w.Procs {
		for i, m := range p.inbox[len(p.inbox):cap(p.inbox)] {
			if m != nil {
				t.Errorf("p%d inbox slot len+%d still holds message %d", p.Index, i, m.ID)
			}
		}
		for _, q := range []struct {
			name string
			q    []retainedMsg
		}{{"retained", p.retained}, {"replay", p.replayQueue}} {
			for i, r := range q.q[len(q.q):cap(q.q)] {
				if r.m != nil {
					t.Errorf("p%d %s slot len+%d still holds message %d", p.Index, q.name, i, r.m.ID)
				}
			}
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
		stub := &rollbackStub{w: w}
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
		if len(p.retained) != 3 {
			t.Errorf("pinger retains %d messages, want 3 (two redelivered, one live)", len(p.retained))
		}
		if len(stub.replay) < 2 {
			t.Fatalf("rollback armed %d redeliveries, want 2", len(stub.replay))
		}
		for i, r := range stub.replay {
			if r.m != nil {
				t.Errorf("consumed replay slot %d still holds message %d", i, r.m.ID)
			}
		}
		checkVacatedNil(t, w)
	})
}
