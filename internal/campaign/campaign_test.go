package campaign

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"failtrans/internal/obs"
)

// serialReference runs the loop Run promises to reproduce.
func serialReference(n int, job func(i int) (int, error), accept func(i int, v int) bool) ([]int, []int, error) {
	var idx, vals []int
	for i := 0; i < n; i++ {
		v, err := job(i)
		if err != nil {
			return idx, vals, err
		}
		idx = append(idx, i)
		vals = append(vals, v)
		if !accept(i, v) {
			break
		}
	}
	return idx, vals, nil
}

// jitteryJob computes a deterministic value after a scheduling-dependent
// delay, so parallel completion order differs from index order.
func jitteryJob(seed int64) func(i int) (int, error) {
	return func(i int) (int, error) {
		r := rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b9))
		time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
		return i*i + int(seed), nil
	}
}

func TestParallelMatchesSerialWithEarlyExit(t *testing.T) {
	for _, workers := range []int{2, 4, 9} {
		for _, stopAt := range []int{0, 1, 7, 23, 39} {
			job := jitteryJob(int64(workers * 1000))
			mkAccept := func(got *[]int) func(int, int) bool {
				return func(i, v int) bool {
					*got = append(*got, i)
					return i < stopAt
				}
			}
			var wantIdx []int
			wantAccept := mkAccept(&wantIdx)
			wi, _, err := serialReference(40, job, wantAccept)
			if err != nil {
				t.Fatal(err)
			}
			var gotIdx []int
			err = Run(Config{Workers: workers}, 40, job, mkAccept(&gotIdx))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotIdx, wi) {
				t.Errorf("workers=%d stopAt=%d: accepted %v, serial accepted %v", workers, stopAt, gotIdx, wi)
			}
		}
	}
}

func TestAcceptOrderStrict(t *testing.T) {
	next := 0
	err := Run(Config{Workers: 8}, 100, jitteryJob(7), func(i, v int) bool {
		if i != next {
			t.Fatalf("accepted index %d, want %d (out of order)", i, next)
		}
		if want := i*i + 7; v != want {
			t.Fatalf("accept(%d) got value %d, want %d", i, v, want)
		}
		next++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 100 {
		t.Fatalf("accepted %d runs, want 100", next)
	}
}

func TestErrorPropagatedAtSerialPosition(t *testing.T) {
	boom := errors.New("boom")
	job := func(i int) (int, error) {
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		if i == 13 {
			return 0, boom
		}
		return i, nil
	}
	var accepted []int
	err := Run(Config{Workers: 6}, 50, job, func(i, v int) bool {
		accepted = append(accepted, i)
		return true
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Everything before the failing index, and nothing at or after it.
	if len(accepted) != 13 {
		t.Fatalf("accepted %d runs before the error, want 13: %v", len(accepted), accepted)
	}
	for k, i := range accepted {
		if i != k {
			t.Fatalf("accepted[%d] = %d", k, i)
		}
	}
}

func TestParallelDeterministicAcrossRepeats(t *testing.T) {
	run := func() []int {
		var got []int
		err := Run(Config{Workers: 5}, 60, jitteryJob(99), func(i, v int) bool {
			got = append(got, v)
			return v < 99+30*30
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run()
	for rep := 0; rep < 5; rep++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat %d diverged: %v vs %v", rep, again, first)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := obs.NewCampaignMetrics(4)
	err := Run(Config{Workers: 4, Metrics: m}, 200, jitteryJob(3), func(i, v int) bool {
		return i < 20
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Accepted != 21 {
		t.Errorf("Accepted = %d, want 21", m.Accepted)
	}
	if m.Phases != 1 {
		t.Errorf("Phases = %d, want 1", m.Phases)
	}
	// Every dispatched run was either accepted or discarded; speculation
	// stays within the credit window past the stop point.
	var workerRuns int64
	for i := range m.Workers {
		workerRuns += m.Workers[i].Runs
	}
	if workerRuns != m.Accepted+m.Discarded {
		t.Errorf("worker runs %d != accepted %d + discarded %d", workerRuns, m.Accepted, m.Discarded)
	}
	if m.Dispatched < m.Accepted || m.Dispatched > m.Accepted+int64(4*speculation)+4 {
		t.Errorf("Dispatched = %d outside [%d, %d]: speculation unbounded?",
			m.Dispatched, m.Accepted, m.Accepted+int64(4*speculation)+4)
	}
	if m.SerialRuns != 0 {
		t.Errorf("SerialRuns = %d on the parallel path", m.SerialRuns)
	}
}

func TestSerialPathMetrics(t *testing.T) {
	m := obs.NewCampaignMetrics(1)
	err := Run(Config{Workers: 1, Metrics: m}, 10,
		func(i int) (int, error) { return i, nil },
		func(i, v int) bool { return i < 4 })
	if err != nil {
		t.Fatal(err)
	}
	if m.SerialRuns != 5 || m.Accepted != 5 {
		t.Errorf("serial runs=%d accepted=%d, want 5/5", m.SerialRuns, m.Accepted)
	}
	// The calling goroutine is worker 0: a serial summary must not print
	// serial=5 over "worker 0 runs=0".
	var sum strings.Builder
	if err := m.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if m.Workers[0].Runs != 5 || !strings.Contains(sum.String(), "serial=5 cells=0 reused=0 converged=0 rejoined=0 steps-skipped=0\n  worker 0 runs=5\n") {
		t.Errorf("worker 0 credited %d of 5 serial runs; summary:\n%s", m.Workers[0].Runs, sum.String())
	}
}

func TestZeroAndTinyN(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		for _, workers := range []int{1, 8} {
			var got []int
			err := Run(Config{Workers: workers}, n,
				func(i int) (int, error) { return i, nil },
				func(i, v int) bool { got = append(got, i); return true })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Errorf("n=%d workers=%d accepted %v", n, workers, got)
			}
		}
	}
}

func TestManyPhasesShareMetrics(t *testing.T) {
	m := obs.NewCampaignMetrics(3)
	for phase := 0; phase < 4; phase++ {
		err := Run(Config{Workers: 3, Metrics: m}, 12,
			jitteryJob(int64(phase)),
			func(i, v int) bool { return i < 6 })
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Phases != 4 {
		t.Errorf("Phases = %d", m.Phases)
	}
	if m.Accepted != 4*7 {
		t.Errorf("Accepted = %d, want 28", m.Accepted)
	}
}
