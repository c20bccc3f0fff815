package sim_test

import (
	"testing"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/bench"
	"failtrans/internal/dc"
	"failtrans/internal/event"
	"failtrans/internal/obs"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// traceCounts tallies w's recorded trace per process the way the event
// blocks count: by kind, effectively non-deterministic events, and events
// whose result was logged.
func traceCounts(w *sim.World) []obs.EventCounts {
	c := make([]obs.EventCounts, len(w.Procs))
	for _, e := range w.Trace.Events {
		pc := &c[e.ID.P]
		pc.Events[e.Kind]++
		if e.EffectivelyND() {
			pc.EffectivelyND++
		}
		if e.Logged {
			pc.Logged++
		}
	}
	return c
}

// checkCounts compares each process's event block, as the registry m sees
// it, with the events w's trace recorded for that process after base (the
// trace's counts when m was attached; nil for from the start). The inbox
// gauge is not a trace quantity and is left out. It returns the trace's
// per-kind totals since base.
func checkCounts(t *testing.T, name string, w *sim.World, m *obs.Metrics, base []obs.EventCounts) [event.KindCount]int64 {
	t.Helper()
	var kinds [event.KindCount]int64
	for i, want := range traceCounts(w) {
		if base != nil {
			for k := range want.Events {
				want.Events[k] -= base[i].Events[k]
			}
			want.EffectivelyND -= base[i].EffectivelyND
			want.Logged -= base[i].Logged
		}
		got := *m.Events[i]
		got.InboxPeak = 0
		if got != want {
			t.Errorf("%s: process %d counted %+v, its trace holds %+v", name, i, got, want)
		}
		for k, n := range want.Events {
			kinds[k] += n
		}
	}
	return kinds
}

// run runs w to completion.
func run(t *testing.T, w *sim.World) {
	t.Helper()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEventCountsMatchTrace: each process's event block counts exactly the
// events the trace records for it — per kind, effectively non-deterministic
// and logged — in a 10³-process fleet, in the four Figure 8 apps under a
// committing and a logging protocol, and in a world the registry is
// attached to part-way, which counts from attachment only. The inbox gauge
// equals the deepest inbox seen stepping a world by hand.
func TestEventCountsMatchTrace(t *testing.T) {
	var kinds [event.KindCount]int64
	add := func(k [event.KindCount]int64) {
		for i, n := range k {
			kinds[i] += n
		}
	}

	t.Run("fleet", func(t *testing.T) {
		w := sim.NewWorld(5, fleet.Fleet(fleet.Sized(1000))...)
		m, _ := w.EnableObs(false)
		run(t, w)
		add(checkCounts(t, "fleet", w, m, nil))
	})

	t.Run("fig8", func(t *testing.T) {
		for _, app := range bench.Fig8Apps {
			for _, pol := range []protocol.Policy{protocol.CPVS, protocol.CBNDVSLog} {
				w, err := bench.BuildWorld(app, 1, 11)
				if err != nil {
					t.Fatal(err)
				}
				m, _ := w.EnableObs(false)
				if err := dc.New(w, pol, stablestore.Rio).Attach(); err != nil {
					t.Fatal(err)
				}
				run(t, w)
				add(checkCounts(t, app+"/"+pol.Name, w, m, nil))
			}
		}
	})

	t.Run("attached part-way", func(t *testing.T) {
		w := sim.NewWorld(7, fleet.Fleet(fleet.Sized(1000))...)
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		for range 3000 {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		base := traceCounts(w)
		m, _ := w.EnableObs(false)
		run(t, w)
		checkCounts(t, "attached part-way", w, m, base)
	})

	// Every kind the runs above produced was compared; a kind no run
	// recorded would let a block that drops it pass.
	for _, k := range []event.Kind{event.Internal, event.Visible, event.Send, event.Receive, event.Commit} {
		if kinds[k] == 0 {
			t.Errorf("no run recorded a %s event", k)
		}
	}

	t.Run("inbox peak", func(t *testing.T) {
		w := sim.NewWorld(5, fleet.Fleet(fleet.Sized(1000))...)
		m, _ := w.EnableObs(false)
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		// A step grows only other processes' inboxes and shrinks only its
		// own, so the deepest inbox after a step is the deepest it got.
		peak := make([]int64, len(w.Procs))
		observe := func() {
			for i, p := range w.Procs {
				peak[i] = max(peak[i], int64(sim.InboxLen(p)))
			}
		}
		observe()
		for {
			more, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			observe()
		}
		deepest := int64(0)
		for i, want := range peak {
			if got := m.Events[i].InboxPeak; got != want {
				t.Errorf("process %d: InboxPeak %d, deepest inbox seen %d", i, got, want)
			}
			deepest = max(deepest, want)
		}
		if deepest < 2 {
			t.Errorf("deepest inbox %d: the run never queues two messages, so the gauge is not tested", deepest)
		}
	})
}
