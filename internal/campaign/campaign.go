// Package campaign is the deterministic parallel executor behind the fault
// studies and the Figure 8 sweep: it fans independent runs out across a
// worker pool while producing results byte-identical to the serial loops it
// replaces.
//
// The subtle requirement is early exit. The studies stop each fault type at
// a run-order-dependent index (the run whose crash reaches CrashTarget), so
// naive parallelism would accept whichever runs finish first and change the
// aggregate. Run instead uses speculative execution with ordered
// acceptance: a bounded window of runs is dispatched to workers in index
// order, but results are accepted strictly in serial run order, and the
// loop stops at exactly the run the serial loop would have stopped at.
// Results computed beyond that point (the speculation overshoot) are
// discarded.
//
// The job contract: job(i) is a pure function of its index and the
// campaign's immutable configuration — whatever goroutine calls it, however
// often and in whatever order, it returns the same value. Jobs need not be
// independent of one another beyond that: two indexes that denote the same
// unit of work may share a once-cell (a sync.Once guarding the unit's
// result), so the unit executes on first demand and every later demand —
// a repeat in serial order or a speculative one on another worker, which
// then waits on the Once — is served the stored result. That is how Table 1
// executes each distinct run key once however many run indexes draw it
// (internal/faults). What a job hands to accept must be the
// caller's to keep: a shared cell returns copies of anything accept may
// mutate or recycle. Under this contract the accepted sequence is identical
// to the serial one at any worker count.
package campaign

import (
	"sync"

	"failtrans/internal/obs"
)

// speculation sizes the dispatch window in multiples of the worker count: a
// worker may run at most this many batches ahead of the acceptance
// frontier. Larger values hide more scheduling jitter but waste more work
// past an early exit.
const speculation = 2

// Config parameterizes one campaign phase.
type Config struct {
	// Workers is the pool size; values <= 1 run the serial loop directly.
	Workers int
	// Metrics, if non-nil, receives per-worker run counts and the
	// dispatched/accepted/discarded totals.
	Metrics *obs.CampaignMetrics
}

// result carries one speculative run's outcome back to the acceptor.
type result[T any] struct {
	i   int
	v   T
	err error
}

// Run executes job(i) for i in [0, n) and feeds the results to accept
// strictly in index order, stopping as soon as accept returns false. Its
// observable behavior is exactly the serial loop
//
//	for i := 0; i < n; i++ {
//		v, err := job(i)
//		if err != nil {
//			return err
//		}
//		if !accept(i, v) {
//			break
//		}
//	}
//
// but with up to cfg.Workers jobs in flight. accept runs on the calling
// goroutine and needs no locking. Jobs must be pure functions of their index
// (they may share once-cells, see the package comment); jobs past the
// stopping point may or may not execute, and their results are discarded.
func Run[T any](cfg Config, n int, job func(i int) (T, error), accept func(i int, v T) bool) error {
	if m := cfg.Metrics; m != nil {
		m.Phases++
	}
	if cfg.Workers <= 1 || n <= 1 {
		return runSerial(cfg, n, job, accept)
	}
	return runParallel(cfg, n, job, accept)
}

// runSerial is the reference loop, with the same metrics accounting.
func runSerial[T any](cfg Config, n int, job func(i int) (T, error), accept func(i int, v T) bool) error {
	m := cfg.Metrics
	for i := 0; i < n; i++ {
		v, err := job(i)
		if m != nil {
			m.SerialRuns++
			m.Dispatched++
			if len(m.Workers) > 0 {
				m.Workers[0].Runs++ // the calling goroutine is worker 0
			}
		}
		if err != nil {
			return err
		}
		if m != nil {
			m.Accepted++
		}
		if !accept(i, v) {
			return nil
		}
	}
	return nil
}

// runParallel is the speculative pool. A feeder hands indexes to workers in
// order, gated by a credit window so speculation stays bounded; the calling
// goroutine accepts results in strict index order and, on early exit or
// error, halts the feeder and drains (discarding) whatever was in flight.
func runParallel[T any](cfg Config, n int, job func(i int) (T, error), accept func(i int, v T) bool) error {
	m := cfg.Metrics
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	window := workers * speculation

	var (
		stopOnce sync.Once
		stop     = make(chan struct{})
		jobs     = make(chan int)
		results  = make(chan result[T], window)
		credits  = make(chan struct{}, window)
	)
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// Feeder: dispatch indexes in order, at most `window` past the
	// acceptance frontier (each dispatch takes a credit; the acceptor
	// returns one per result consumed).
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case <-stop:
				return
			case credits <- struct{}{}:
			}
			select {
			case <-stop:
				return
			case jobs <- i:
				if m != nil {
					m.Dispatched++ // feeder is the sole writer
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := range jobs {
				v, jerr := job(i)
				if m != nil && k < len(m.Workers) {
					m.Workers[k].Runs++ // each worker owns its slot
				}
				results <- result[T]{i: i, v: v, err: jerr}
			}
		}(k)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Acceptor: reorder buffer keyed by index, consumed at the frontier.
	pending := make(map[int]result[T], window)
	next := 0
	stopped := false
	var firstErr error
	for r := range results {
		<-credits
		if stopped {
			if m != nil {
				m.Discarded++
			}
			continue
		}
		pending[r.i] = r
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if q.err != nil {
				firstErr = q.err
				stopped = true
				halt()
				break
			}
			if m != nil {
				m.Accepted++
			}
			if !accept(q.i, q.v) {
				stopped = true
				halt()
				break
			}
		}
	}
	if m != nil {
		m.Discarded += int64(len(pending))
	}
	return firstErr
}
