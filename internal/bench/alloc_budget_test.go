package bench

import (
	"math"
	"runtime"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/faults"
	"failtrans/internal/protocol"
	"failtrans/internal/stablestore"
)

// TestFig8AllocBudget bounds the bytes each Figure 8 app allocates per world
// step at test scale, under a committing and a logging protocol, as the
// sweep runs them (metrics on, trace off). Allocation volume is independent
// of the host, so this is the fig8_sweep benchmark's alloc_kb_per_op as a
// go test. Each ceiling is about 1.25× what the recycled octree and tile
// lists, the geometric segment growth and the ND and send scratch buffers
// leave, measured under the race detector (which allocates up to 1.2× more)
// where that is higher; without them treadmarks and magic exceed theirs.
// TotalAlloc is process-wide, so each case is the minimum over three fresh
// worlds: stray runtime allocations (under -race some hundred bytes, enough
// to lift magic's 155-step run past its ceiling) only ever add, so the
// minimum still bounds what the world allocates.
func TestFig8AllocBudget(t *testing.T) {
	for _, tc := range []struct {
		app     string
		policy  protocol.Policy
		ceiling float64 // bytes per world step
	}{
		{"nvi", protocol.CPVS, 150},
		{"nvi", protocol.CBNDVSLog, 205},
		{"magic", protocol.CPVS, 165},
		{"magic", protocol.CBNDVSLog, 240},
		{"xpilot", protocol.CPVS, 100},
		{"xpilot", protocol.CBNDVSLog, 147},
		{"treadmarks", protocol.CPVS, 650},
		{"treadmarks", protocol.CBNDVSLog, 780},
	} {
		perStep, steps := math.Inf(1), 0
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
		}
		t.Logf("%s/%s: %.1f B per step over %d steps", tc.app, tc.policy.Name, perStep, steps)
		if perStep > tc.ceiling {
			t.Errorf("%s/%s allocates %.1f B per world step, ceiling %.0f", tc.app, tc.policy.Name, perStep, tc.ceiling)
		}
	}
}

// TestTablesAllocBudget bounds the bytes Table 1 allocates per injection run
// at test scale, for each app under a committing and a logging protocol, as
// ftbench runs the study (snapshot forks, serial campaign). This is the
// tables_commit and tables_log benchmarks' alloc_kb_per_op as a go test.
// Each ceiling is about 1.25× what copy-on-write postgres forks, the query
// scratch buffers, nvi's screen and file scratch and the reused syscall
// argument vector leave, measured under the race detector (up to 1.1× more);
// with a marshal round-trip postgres fork and per-call argument and line
// buffers, every row exceeds its ceiling (nvi 181/195 KB, postgres
// 244/191 KB per run).
func TestTablesAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		app     string
		policy  protocol.Policy
		ceiling float64 // bytes per injection run
	}{
		{"nvi", protocol.CPVS, 142_000},
		{"nvi", protocol.CBNDVSLog, 145_000},
		{"postgres", protocol.CPVS, 220_000},
		{"postgres", protocol.CBNDVSLog, 153_000},
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
		t.Logf("%s/%s: %.0f B per run over %d runs", tc.app, tc.policy.Name, perRun, runs)
		if perRun > tc.ceiling {
			t.Errorf("%s/%s allocates %.0f B per injection run, ceiling %.0f", tc.app, tc.policy.Name, perRun, tc.ceiling)
		}
	}
}
