package sim

import (
	"io"
	"testing"
	"time"

	"failtrans/internal/obs"
)

// TestInboxMinCacheMatchesScan cross-checks the cached inbox delivery
// minimum (the O(1) readyAt fast path) against a naive scan through a mix
// of appends and removals.
func TestInboxMinCacheMatchesScan(t *testing.T) {
	w := NewWorld(1, &counter{N: 1}, &counter{N: 1})
	p := w.Procs[1]
	naive := func() (time.Duration, bool) {
		var best time.Duration
		ok := false
		for _, m := range p.inbox {
			if !ok || m.DeliverAt < best {
				best, ok = m.DeliverAt, true
			}
		}
		return best, ok
	}
	check := func(when string) {
		t.Helper()
		got, gok := p.earliestInbox()
		want, wok := naive()
		if gok != wok || (gok && got != want) {
			t.Fatalf("%s: earliestInbox = (%v,%v), naive scan = (%v,%v)", when, got, gok, want, wok)
		}
	}

	check("empty")
	for i, at := range []time.Duration{5, 3, 9, 3, 1, 7} {
		p.inboxAdd(&Msg{ID: int64(i), DeliverAt: at * time.Millisecond})
		check("after add")
	}
	// Remove from the front, the middle and the back, as Recv's splice does.
	for _, pick := range []func() int{
		func() int { return 0 },
		func() int { return len(p.inbox) / 2 },
		func() int { return len(p.inbox) - 1 },
	} {
		idx := pick()
		p.inbox = append(p.inbox[:idx], p.inbox[idx+1:]...)
		p.inboxChanged()
		check("after removal")
	}
	for len(p.inbox) > 0 {
		p.inbox = p.inbox[:len(p.inbox)-1]
		p.inboxChanged()
		check("after drain")
	}

	// readyAt must see the cached minimum for a blocked process.
	p.status = WaitMsg
	p.inboxAdd(&Msg{ID: 99, DeliverAt: 42 * time.Millisecond})
	at, ok := w.readyAt(p)
	want := 42 * time.Millisecond
	if want < p.wake {
		want = p.wake
	}
	if !ok || at != want {
		t.Fatalf("readyAt = (%v,%v), want (%v,true)", at, ok, want)
	}
}

// TestRequeueEmpty: requeueing nothing is a no-op — in particular the debug
// diagnostic runs only for a real requeue.
func TestRequeueEmpty(t *testing.T) {
	w := NewWorld(1, &counter{N: 1})
	w.DebugLog = &obs.DebugLog{Enabled: true, W: io.Discard}
	p := w.Procs[0]
	w.Requeue(p, nil)
	if len(p.inbox) != 0 || p.inbox != nil {
		t.Fatalf("requeue of nothing mutated the inbox: %v", p.inbox)
	}
}

// TestRequeueAheadOfInbox: a divergence makes the receives a re-execution
// will not be handed deliverable now — copies addressed to the process,
// re-timed to the clock, ahead of the live inbox in the given order — and
// refreshes the cached delivery minimum. The caller's messages are not
// touched.
func TestRequeueAheadOfInbox(t *testing.T) {
	w := NewWorld(1, &counter{N: 1})
	p := w.Procs[0]
	p.inboxAdd(&Msg{ID: 1, DeliverAt: time.Second})
	w.Clock = 5 * time.Millisecond
	ms := []Msg{{ID: 2, From: 1, DeliverAt: time.Hour}, {ID: 3, From: 1}}
	w.Requeue(p, ms)
	if len(p.inbox) != 3 || p.inbox[0].ID != 2 || p.inbox[1].ID != 3 || p.inbox[2].ID != 1 {
		t.Fatalf("requeue did not go ahead of the live inbox in order: %+v", p.inbox)
	}
	for _, m := range p.inbox[:2] {
		if m.DeliverAt != w.Clock || m.To != p.Index {
			t.Errorf("requeued message %d: DeliverAt %v To %d, want %v and %d", m.ID, m.DeliverAt, m.To, w.Clock, p.Index)
		}
	}
	if ms[0].DeliverAt != time.Hour {
		t.Error("requeue re-timed the caller's message")
	}
	if at, ok := p.earliestInbox(); !ok || at != w.Clock {
		t.Fatalf("cached minimum stale after requeue: (%v,%v), want (%v,true)", at, ok, w.Clock)
	}
}
