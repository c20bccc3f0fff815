package bench

import (
	"fmt"
	"testing"
	"time"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
)

// sleeper is BenchmarkSchedUpdate's program: every step does one
// Sleep and nothing else, so a world of sleepers measures pure scheduler
// cost — one pick, one reindex, no events, no allocation.
type sleeper struct{ d time.Duration }

func (s *sleeper) Name() string                  { return "sleeper" }
func (s *sleeper) Init(ctx *sim.Ctx) error       { return nil }
func (s *sleeper) MarshalState() ([]byte, error) { return nil, nil }
func (s *sleeper) UnmarshalState([]byte) error   { return nil }
func (s *sleeper) Step(ctx *sim.Ctx) sim.Status {
	ctx.Sleep(s.d)
	return sim.Sleeping
}

// BenchmarkSchedUpdate measures one scheduling decision on a 10⁴-process world
// where every process is a sleeper: each Step is a readiness-index peek plus
// exactly one reindex of the stepped process (steady state: zero
// allocations).
func BenchmarkSchedUpdate(b *testing.B) {
	const n = 10_000
	progs := make([]sim.Program, n)
	for i := range progs {
		progs[i] = &sleeper{d: time.Duration(1+i%7) * time.Millisecond}
	}
	w := sim.NewWorld(3, progs...)
	w.RecordTrace = false
	if err := w.Init(); err != nil {
		b.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetStep measures end-to-end scheduling-decision cost on the real
// 10⁴-proc fleet baseline, rebuilding the world off-clock whenever a run
// drains.
func BenchmarkFleetStep(b *testing.B) {
	cfg := fleet.Sized(10_000)
	build := func() *sim.World {
		w := sim.NewWorld(23, fleet.Fleet(cfg)...)
		w.RecordTrace = false
		if err := w.Init(); err != nil {
			b.Fatal(err)
		}
		return w
	}
	b.StopTimer()
	w := build()
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		more, err := w.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !more {
			b.StopTimer()
			w = build()
			b.StartTimer()
		}
	}
}

// fleetKiBPerProcCeiling bounds what a finished 10⁴-process fleet keeps
// alive per process with the metrics registry on. Measured on linux/amd64:
// 0.78 KiB with receive marks in a sorted slice and segment counter blocks
// allocated by the first segment; 1.03 KiB with a receive-mark map per
// process and a segment block for every process up front; 3.32 KiB while
// every process retained the messages it consumed, left the last one
// reachable from its inbox's backing array and carried four histograms
// inline in its metrics block.
const fleetKiBPerProcCeiling = 1.0

// fleetLogKiBPerProcCeiling bounds the same under CBNDVS-LOG, where each
// process also keeps its checkpoint segment and its ND log of every receive.
// Measured on linux/amd64: 8.31 KiB with receive marks in a sorted slice;
// 8.51 KiB with log segments that double from 64 B to 4 KiB; 8.67 KiB with a record-header array and a heap copy per value;
// 12.14 KiB with fixed 4 KiB segments.
const fleetLogKiBPerProcCeiling = 10.0

// TestFleetFootprint: a process costs only what it uses. Without a recovery
// layer nothing can redeliver a consumed message and nothing observes a
// histogram, so neither may stay on the heap once the fleet is done; under
// a logging protocol a process's log is as small as what it logged.
func TestFleetFootprint(t *testing.T) {
	for _, c := range []struct {
		pol     *protocol.Policy
		ceiling float64
	}{
		{nil, fleetKiBPerProcCeiling},
		{&protocol.CBNDVSLog, fleetLogKiBPerProcCeiling},
	} {
		pt, err := runFleetOnce(10_000, c.pol)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.2f KiB per process", pt.Protocol, pt.HeapKiBPerProc)
		if pt.HeapKiBPerProc <= 0 || pt.HeapKiBPerProc > c.ceiling {
			t.Errorf("%s: finished fleet keeps %.2f KiB per process live, want (0, %.1f]", pt.Protocol, pt.HeapKiBPerProc, c.ceiling)
		}
	}
}

// TestFleetStepAllocFree pins BenchmarkFleetStep's 0 allocs/op on every
// `go test`: once a 10⁴-process fleet is past its warm-up (arenas, inbox
// and stale-list growth), a scheduling decision allocates nothing, with the
// metrics registry detached and attached alike.
func TestFleetStepAllocFree(t *testing.T) {
	for _, registry := range []bool{false, true} {
		t.Run(fmt.Sprintf("registry=%v", registry), func(t *testing.T) {
			w := sim.NewWorld(23, fleet.Fleet(fleet.Sized(10_000))...)
			w.RecordTrace = false
			if registry {
				w.EnableObs(false)
			}
			if err := w.Init(); err != nil {
				t.Fatal(err)
			}
			step := func() {
				if more, err := w.Step(); err != nil || !more {
					t.Fatalf("step %d: more=%v err=%v", w.StepCount(), more, err)
				}
			}
			for i := 0; i < 50_000; i++ {
				step()
			}
			if n := testing.AllocsPerRun(2000, step); n != 0 {
				t.Errorf("%v allocs per fleet Step, want 0", n)
			}
		})
	}
}
