package bench

import (
	"math"
	"runtime"
	"testing"

	"failtrans/internal/apps/fleet"
	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// TestFig8AllocBudget bounds the bytes and the allocations each Figure 8
// app makes per world step at test scale, under a committing and a logging
// protocol and, for the two messaging apps, under both two-phase-commit
// protocols, as the sweep runs them (metrics on, trace off). Allocation
// volume is independent of the host, so this is the fig8_sweep benchmark's
// alloc_kb_per_op and allocs_per_op as a go test. Each ceiling is about
// 1.25× what the recycled octree and tile lists, the geometric segment
// growth, the ND and send scratch buffers, the message path's reused
// scratch and the output arena leave, measured under the race detector
// (which allocates up to 1.2× more) where that is higher; without them
// treadmarks and magic exceed their byte ceilings. With a fresh frame
// encoder and two fmt.Sprintf calls per xpilot frame, two page copies per
// transferred DSM page and a reslicing outbox pop, and a map per
// dependency-carrying send, the xpilot rows made 0.84–1.17 allocations
// (64–87 B) per step and the treadmarks rows 0.63–1.19 (516–612 B), every
// one past its ceiling. With a string of its own per visible output and,
// in magic, per command (plus strings.Fields and fmt.Sprintf per command),
// the nvi rows made 0.31–0.32 allocations per step, the magic rows
// 1.74–1.97 (116–145 B) and the xpilot rows 0.11–0.13, every one past its
// allocation ceiling. The
// runtime counters are process-wide, so each case is the minimum over three
// fresh worlds: stray runtime allocations (under -race some hundred bytes,
// enough to lift magic's 155-step run past its ceiling) only ever add, so
// the minimum still bounds what the world allocates.
func TestFig8AllocBudget(t *testing.T) {
	for _, tc := range []struct {
		app     string
		policy  protocol.Policy
		bytes   float64 // bytes per world step
		mallocs float64 // allocations per world step
	}{
		{"nvi", protocol.CPVS, 75, 0.075},
		{"nvi", protocol.CBNDVSLog, 80, 0.085},
		{"magic", protocol.CPVS, 87, 0.48},
		{"magic", protocol.CBNDVSLog, 106, 0.55},
		{"xpilot", protocol.CPVS, 49, 0.045},
		{"xpilot", protocol.CBNDVSLog, 68, 0.06},
		{"xpilot", protocol.CPV2PC, 57, 0.05},
		{"xpilot", protocol.CBNDV2PC, 57, 0.052},
		{"treadmarks", protocol.CPVS, 400, 0.16},
		{"treadmarks", protocol.CBNDVSLog, 530, 0.22},
		{"treadmarks", protocol.CPV2PC, 430, 0.21},
		{"treadmarks", protocol.CBNDV2PC, 430, 0.21},
	} {
		perStep, mallocsPerStep, steps := math.Inf(1), math.Inf(1), 0
		for range 3 {
			w, err := BuildWorld(tc.app, 1, 11)
			if err != nil {
				t.Fatal(err)
			}
			w.RecordTrace = false
			w.EnableObs(false)
			d := dc.New(w, tc.policy, stablestore.Rio)
			if err := d.Attach(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			steps = w.StepCount()
			perStep = min(perStep, float64(after.TotalAlloc-before.TotalAlloc)/float64(steps))
			mallocsPerStep = min(mallocsPerStep, float64(after.Mallocs-before.Mallocs)/float64(steps))
		}
		t.Logf("%s/%s: %.1f B and %.3f allocations per step over %d steps", tc.app, tc.policy.Name, perStep, mallocsPerStep, steps)
		if perStep > tc.bytes {
			t.Errorf("%s/%s allocates %.1f B per world step, ceiling %.0f", tc.app, tc.policy.Name, perStep, tc.bytes)
		}
		if mallocsPerStep > tc.mallocs {
			t.Errorf("%s/%s allocates %.3f times per world step, ceiling %.3f", tc.app, tc.policy.Name, mallocsPerStep, tc.mallocs)
		}
	}
}

// TestTablesAllocBudget bounds the bytes and the allocations Table 1 makes
// per injection run at test scale, for each app under a committing and a
// logging protocol, as ftbench runs the study (snapshot forks, serial
// campaign). This is the tables_commit and tables_log benchmarks'
// alloc_kb_per_op and allocs_per_op as a go test. Each byte ceiling is about
// 1.25× what copy-on-write postgres forks, the query scratch buffers, nvi's
// screen and file scratch and the reused syscall argument vector leave,
// measured under the race detector (up to 1.1× more); with a marshal
// round-trip postgres fork and per-call argument and line buffers, every row
// exceeds its ceiling (nvi 181/195 KB, postgres 244/191 KB per run). Each
// allocation ceiling is about 1.25× what the output arena and the command
// views leave — and, for postgres, the index its forks share node by node,
// the slabs a restore decodes it into and the pool's syscall scratch —
// under the race detector (nvi 161/167, postgres 133/140 per run); with a
// string per visible output, per postgres command and per fmt-built reply,
// every row exceeds it (nvi 378/407, postgres 488/491), and with an index
// cloned at every fork and decoded key by key the postgres rows made
// 235/227.
func TestTablesAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		app     string
		policy  protocol.Policy
		ceiling float64 // bytes per injection run
		mallocs float64 // allocations per injection run
	}{
		{"nvi", protocol.CPVS, 142_000, 200},
		{"nvi", protocol.CBNDVSLog, 145_000, 210},
		{"postgres", protocol.CPVS, 220_000, 166},
		{"postgres", protocol.CBNDVSLog, 153_000, 175},
	} {
		s := faults.NewAppStudy(tc.app)
		s.Policy = tc.policy
		StudyOptions{Crashes: 3}.apply(s, "table1")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rs, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runs := 0
		for _, r := range rs {
			runs += r.Runs
		}
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
		mallocsPerRun := float64(after.Mallocs-before.Mallocs) / float64(runs)
		t.Logf("%s/%s: %.0f B and %.0f allocations per run over %d runs", tc.app, tc.policy.Name, perRun, mallocsPerRun, runs)
		if perRun > tc.ceiling {
			t.Errorf("%s/%s allocates %.0f B per injection run, ceiling %.0f", tc.app, tc.policy.Name, perRun, tc.ceiling)
		}
		if mallocsPerRun > tc.mallocs {
			t.Errorf("%s/%s allocates %.0f times per injection run, ceiling %.0f", tc.app, tc.policy.Name, mallocsPerRun, tc.mallocs)
		}
	}
}

// TestFleetAllocBudget bounds the allocations per scheduling decision of a
// 10⁴-process echo fleet run for 8 rounds, metrics on and trace off: the
// fleet_sched benchmark's allocs_per_op at a tenth of its scale, as a go
// test. The ceiling is about 1.25× what the message arenas, the inbox, queue
// and receive-mark growth and the reporters' output lines leave; with an
// echo copy per request and a reply queue that popped by reslicing (so the
// next append reallocated), a run made 0.37 allocations per decision. As in
// TestFig8AllocBudget, the count is the minimum over three fresh worlds.
func TestFleetAllocBudget(t *testing.T) {
	const ceiling = 0.08 // allocations per scheduling decision
	perStep, steps := math.Inf(1), 0
	for range 3 {
		cfg := fleet.Sized(10_000)
		cfg.Rounds = 8
		w := sim.NewWorld(1, fleet.Fleet(cfg)...)
		w.RecordTrace = false
		w.EnableObs(false)
		if err := w.Init(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !w.AllDone() {
			t.Fatalf("fleet did not finish (%d/%d done)", w.DoneCount(), len(w.Procs))
		}
		steps = w.StepCount()
		perStep = min(perStep, float64(after.Mallocs-before.Mallocs)/float64(steps))
	}
	t.Logf("%.4f allocations per scheduling decision over %d decisions", perStep, steps)
	if perStep > ceiling {
		t.Errorf("fleet allocates %.4f times per scheduling decision, ceiling %.2f", perStep, ceiling)
	}
}
