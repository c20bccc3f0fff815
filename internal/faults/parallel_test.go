package faults

import (
	"encoding/json"
	"runtime"
	"testing"

	"failtrans/internal/obs"
)

// asJSON pins results down to the byte level: the parallel studies promise
// byte-identical output, not just statistically similar output.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestAppStudyParallelMatchesSerial: an app campaign (CPVS, the study's
// default) at several workers matches the serial one byte for byte. Its
// forks of one sealed template step at once, each printing into its own
// byte arena and, for postgres, its own reply buffer while parsing its
// command where the script holds it; under -race this is also the check
// that no two of them write a byte in common.
func TestAppStudyParallelMatchesSerial(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		t.Run(app, func(t *testing.T) {
			serial := smallStudy(app)
			got, err := serial.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := asJSON(t, got)
			for _, workers := range []int{2, 4, 7} {
				s := smallStudy(app)
				s.Parallel = workers
				s.CampaignObs = obs.NewCampaignMetrics(workers)
				rs, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if j := asJSON(t, rs); j != want {
					t.Errorf("workers=%d diverged from serial:\n got %s\nwant %s", workers, j, want)
				}
				// The early exit means speculation overshoots; every overshot
				// run must be accounted as discarded, never folded into the
				// results.
				var workerRuns int64
				for i := range s.CampaignObs.Workers {
					workerRuns += s.CampaignObs.Workers[i].Runs
				}
				if workerRuns != s.CampaignObs.Accepted+s.CampaignObs.Discarded {
					t.Errorf("workers=%d: runs %d != accepted %d + discarded %d",
						workers, workerRuns, s.CampaignObs.Accepted, s.CampaignObs.Discarded)
				}
			}
		})
	}
}

func TestOSStudyParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *OSStudy {
		o := NewOSStudy("nvi")
		o.CrashTarget = 3
		o.MaxRunsPerType = 20
		o.SessionLen = 120
		o.Parallel = workers
		return o
	}
	got, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := asJSON(t, got)
	for _, workers := range []int{3, 6} {
		rs, err := mk(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		if j := asJSON(t, rs); j != want {
			t.Errorf("workers=%d diverged from serial:\n got %s\nwant %s", workers, j, want)
		}
	}
}

// BenchmarkAppStudyNvi measures the nvi application study serial vs fanned
// out over all cores — the speedup the parallel campaign runner exists
// for. The study is sized a notch above smallStudy so the speculation
// overshoot (bounded per fault type) amortizes the way a paper-scale
// campaign's does. See EXPERIMENTS.md for checked-in numbers.
func BenchmarkAppStudyNvi(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "serial"
		if workers > 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewAppStudy("nvi")
				s.CrashTarget = 8
				s.MaxRunsPerType = 60
				s.SessionLen = 150
				s.Parallel = workers
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
