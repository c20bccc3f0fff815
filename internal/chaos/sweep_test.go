package chaos

import (
	"strings"
	"testing"

	"failtrans/internal/dc"
	"failtrans/internal/protocol"
	"failtrans/internal/recovery"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// sweepPoints bounds how many stop positions the sweep tries per process:
// a process of n events is stopped at every ceil(n/sweepPoints)-th one.
const sweepPoints = 64

// TestStopSweep stops each process of every TestChaos app, one stop a run,
// at evenly strided event positions across its whole failure-free run,
// under every protocol of protocol.Space(). It asserts two things:
//
//   - a policy that logs every ND event replays its log without diverging
//     (dc.Stats.Divergences == 0): replay must reproduce the original run,
//     including the polls that found nothing;
//   - Save-work implies consistent recovery, the paper's theorem: a run
//     whose outcome is not consistent with the failure-free one must have
//     a trace on which recovery.CheckSaveWork reports a violation.
//
// Runs go untraced; an inconsistent one is re-run with its trace recorded
// for the checker.
func TestStopSweep(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			clean := sc.build()
			clean.RecordTrace = false
			clean.MaxSteps = sc.maxSteps
			if err := clean.Run(); err != nil {
				t.Fatal(err)
			}
			want := sc.outcome(clean)
			steps := make([]int, len(clean.Procs))
			for i, p := range clean.Procs {
				steps[i] = p.Steps
			}
			run := func(pol protocol.Policy, pid, at int, trace bool) (*sim.World, *dc.DC, bool) {
				w := sc.build()
				w.RecordTrace = trace
				w.MaxSteps = sc.maxSteps
				d := dc.New(w, pol, stablestore.Rio)
				if err := d.Attach(); err != nil {
					t.Fatal(err)
				}
				w.ScheduleStop(pid, at)
				if err := w.Run(); err != nil {
					t.Fatalf("%s stop %d@%d: %v", pol.Name, pid, at, err)
				}
				return w, d, w.AllDone() && consistent(sc, sc.outcome(w), want)
			}
			runs := 0
			for _, pol := range protocol.Space() {
				for pid, n := range steps {
					stride := max(1, (n+sweepPoints-1)/sweepPoints)
					for at := 0; at < n; at += stride {
						runs++
						_, d, ok := run(pol, pid, at, false)
						if pol.LogAll && d.Stats.Divergences != 0 {
							t.Errorf("%s stop %d@%d: %d replay divergences under a log-everything policy",
								pol.Name, pid, at, d.Stats.Divergences)
						}
						if ok {
							continue
						}
						if w, _, _ := run(pol, pid, at, true); len(recovery.CheckSaveWork(w.Trace)) == 0 {
							t.Errorf("%s stop %d@%d: outcome inconsistent, yet the trace upholds Save-work",
								pol.Name, pid, at)
						}
					}
				}
			}
			t.Logf("%d runs", runs)
		})
	}
}

// consistent reports whether a recovered run's outcome is consistent with
// the failure-free one, as TestChaos judges it.
func consistent(sc scenario, got, want []string) bool {
	if sc.digestExact {
		return strings.Join(got, "|") == strings.Join(want, "|")
	}
	eq, complete := recovery.Equivalent(got, want)
	return eq && complete
}
