package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// CampaignWorkerMetrics is one campaign worker's fixed-slot counter block.
// Each slot is written only by its own worker goroutine while the campaign
// runs and read only after the pool has drained, so plain increments are
// race-free.
type CampaignWorkerMetrics struct {
	// Runs counts the jobs this worker executed, whether their results
	// were later accepted or discarded as speculative overshoot. The serial
	// path's calling goroutine is worker 0.
	Runs int64
}

// CampaignMetrics accounts a campaign executor's work: how many runs were
// dispatched speculatively, how many were accepted in serial order, and how
// many were overshoot past the early-exit point the equivalent serial loop
// would have stopped at. The per-worker distribution depends on goroutine
// scheduling and is diagnostic only; the accepted totals are deterministic.
type CampaignMetrics struct {
	Workers []CampaignWorkerMetrics

	// Phases counts ordered-acceptance loops executed (one per fault kind
	// in a study, one per application in a Figure 8 sweep).
	Phases int64
	// Dispatched counts runs handed to workers; Accepted counts results
	// consumed in serial run order; Discarded counts speculative overshoot
	// thrown away after an early exit.
	Dispatched int64
	Accepted   int64
	Discarded  int64
	// SerialRuns counts runs executed on the serial (single-worker) path.
	SerialRuns int64
	// Cells counts distinct units of work a study executed behind a
	// once-cell (Table 1: one per fault kind and fire point demanded);
	// Reused counts the jobs served a cell's stored result instead of
	// executing. Workers update both concurrently. A study whose jobs all
	// go through cells has Cells + Reused == Accepted + Discarded; under
	// speculation the split varies with the worker count (an overshoot job
	// may be the first demand of a cell no accepted job draws).
	Cells  atomic.Int64
	Reused atomic.Int64

	// Snapshot accounts the fault studies' prefix-snapshot cache.
	Snapshot SnapshotMetrics
}

// SnapshotMetrics accounts the snapshot/fork engine's work for a campaign.
// Unlike the per-worker counter blocks, forks are served to whichever
// worker asks, so the counters are mutex-guarded. Fork and StepsSaved
// totals count every fork served, including speculative overshoot runs
// whose results were later discarded, so they vary with the worker count
// (diagnostic, like the per-worker run distribution). A job served from a
// once-cell (CampaignMetrics.Reused) forks and replays nothing, so in
// Table 1 Forks, StepsSaved and InjectionRuns count executed cells, not
// run indexes.
type SnapshotMetrics struct {
	mu sync.Mutex
	// Snapshots counts snapshots captured from template runs.
	Snapshots int64
	// Forks counts worlds forked from a snapshot: one per executed cell in
	// Table 1 (its run goes on past a crash into its own recovery check),
	// one per run in Table 2.
	Forks int64
	// StepsSaved totals the clean-prefix steps the forks did not have to
	// re-execute (the snapshot's step count, per fork).
	StepsSaved int64
	// ForkLatency distributes wall-clock fork cost in nanoseconds. Only
	// populated when the study was handed a wall clock (the deterministic
	// core cannot read one itself).
	ForkLatency Histogram
	// StepsReplayed totals the clean-prefix steps injection runs actually
	// re-executed before fault activation; InjectionRuns counts the runs
	// executed (activated faults only, one per executed Table 1 cell; a run
	// served from a once-cell executes nothing and is not counted). Both study modes update them — a
	// from-scratch run replays its whole prefix, a fork only the tail past
	// its snapshot — so the pair quantifies what memoization saves.
	StepsReplayed int64
	InjectionRuns int64
	// PagesPrivatized and BytesCOW total the copy-on-write cost the
	// campaign's forks paid: pages copied out of frozen templates on first
	// touch and the bytes moved doing so. ForkSize distributes that cost
	// per fork (bytes privatized over the fork's whole run), so the COW
	// win — forks that touch a sliver of the template — is visible in
	// metrics, not just the benchmark row.
	PagesPrivatized int64
	BytesCOW        int64
	ForkSize        Histogram
	// Converged counts Table 1 cells whose measured run stopped at a later
	// snapshot whose state its own matched exactly; Rejoined counts runs (in
	// Table 1, cells) that crashed, recovered and stopped at a snapshot whose
	// state their own matched up to position offsets; StepsSkipped totals
	// the template steps past those snapshots both inherited instead of
	// executing. A run counts when it is accepted (a Table 1 cell when the
	// first run it serves is), so unlike Forks all three are the same at
	// every worker count.
	Converged    int64
	Rejoined     int64
	StepsSkipped int64
	// StoreHits is always 0: the snapshot store it counted is gone, and the
	// field stays only because benchmark/ reads it as faults.store_hits.
	StoreHits int64
}

// AddSnapshot records one captured snapshot.
func (s *SnapshotMetrics) AddSnapshot() {
	s.mu.Lock()
	s.Snapshots++
	s.mu.Unlock()
}

// AddFork records one served fork: the steps its run did not re-execute
// and, when ns >= 0, the wall-clock fork latency.
func (s *SnapshotMetrics) AddFork(stepsSaved int, ns int64) {
	s.mu.Lock()
	s.Forks++
	s.StepsSaved += int64(stepsSaved)
	if ns >= 0 {
		s.ForkLatency.Observe(ns)
	}
	s.mu.Unlock()
}

// AddCOW records one finished fork's copy-on-write cost: the pages it
// privatized out of its frozen template and the bytes copied doing so.
func (s *SnapshotMetrics) AddCOW(pages int, bytes int64) {
	s.mu.Lock()
	s.PagesPrivatized += int64(pages)
	s.BytesCOW += bytes
	s.ForkSize.Observe(bytes)
	s.mu.Unlock()
}

// AddReplay records one activated injection run that re-executed `steps`
// clean-prefix steps before its fault fired.
func (s *SnapshotMetrics) AddReplay(steps int) {
	s.mu.Lock()
	s.StepsReplayed += int64(steps)
	s.InjectionRuns++
	s.mu.Unlock()
}

// AddConverged records one run that converged on a snapshot, or rejoined
// one up to offsets, and inherited the template's remaining `steps`.
func (s *SnapshotMetrics) AddConverged(steps int, rejoined bool) {
	s.mu.Lock()
	if rejoined {
		s.Rejoined++
	} else {
		s.Converged++
	}
	s.StepsSkipped += int64(steps)
	s.mu.Unlock()
}

// ReplaySnapshot returns the current replay totals (the campaign workers
// update them concurrently).
func (s *SnapshotMetrics) ReplaySnapshot() (stepsReplayed, injectionRuns int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.StepsReplayed, s.InjectionRuns
}

// NewCampaignMetrics returns a registry with one preallocated slot per
// worker.
func NewCampaignMetrics(workers int) *CampaignMetrics {
	if workers < 1 {
		workers = 1
	}
	return &CampaignMetrics{Workers: make([]CampaignWorkerMetrics, workers)}
}

// WriteSummary writes a human-readable summary block.
func (c *CampaignMetrics) WriteSummary(w io.Writer) error {
	s := &c.Snapshot
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := fmt.Fprintf(w, "campaign phases=%d dispatched=%d accepted=%d discarded=%d serial=%d cells=%d reused=%d converged=%d rejoined=%d steps-skipped=%d\n",
		c.Phases, c.Dispatched, c.Accepted, c.Discarded, c.SerialRuns, c.Cells.Load(), c.Reused.Load(), s.Converged, s.Rejoined, s.StepsSkipped)
	if err != nil {
		return err
	}
	for i := range c.Workers {
		if _, err := fmt.Fprintf(w, "  worker %d runs=%d\n", i, c.Workers[i].Runs); err != nil {
			return err
		}
	}
	if s.Snapshots > 0 || s.Forks > 0 {
		if _, err := fmt.Fprintf(w, "  snapshots=%d forks=%d steps-saved=%d fork-latency-mean=%dns\n",
			s.Snapshots, s.Forks, s.StepsSaved, s.ForkLatency.Mean()); err != nil {
			return err
		}
	}
	if s.PagesPrivatized > 0 || s.BytesCOW > 0 {
		if _, err := fmt.Fprintf(w, "  cow pages-privatized=%d bytes-copied=%d fork-size-mean=%dB fork-size-p99=%dB\n",
			s.PagesPrivatized, s.BytesCOW, s.ForkSize.Mean(), s.ForkSize.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}
