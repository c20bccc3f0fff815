package faults

import (
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/sim"
)

// TestFirePointRange pins the S2 fix: the fire-point draw is total for
// every SessionLen >= 1 and lands in [fireBase, fireHorizon], and the
// snapshot horizon derives from the same fireSpan as the draw window.
func TestFirePointRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 150} {
		s := NewAppStudy("nvi")
		s.SessionLen = n
		span := s.fireSpan()
		if span < 1 {
			t.Fatalf("SessionLen %d: fireSpan %d, want >= 1", n, span)
		}
		if want := fireBase + span - 1; s.fireHorizon() != want {
			t.Fatalf("SessionLen %d: fireHorizon %d, want %d", n, s.fireHorizon(), want)
		}
		seen := map[int64]bool{}
		for run := 0; run < 500; run++ {
			at := s.key(sim.HeapBitFlip, run).FireAt // panicked for SessionLen < 2 before the fix
			if at < fireBase || at > int64(s.fireHorizon()) {
				t.Fatalf("SessionLen %d: fire point %d outside [%d, %d]", n, at, fireBase, s.fireHorizon())
			}
			seen[at] = true
		}
		if len(seen) != span {
			t.Errorf("SessionLen %d: draws hit %d distinct points, want the full span %d", n, len(seen), span)
		}
	}
}

// TestSessionLenValidated: both studies reject a session shorter than one
// step before running anything.
func TestSessionLenValidated(t *testing.T) {
	s := smallStudy("nvi")
	s.SessionLen = 0
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "SessionLen") {
		t.Fatalf("Table 1: SessionLen 0 not rejected (err %v)", err)
	}
	o := NewOSStudy("nvi")
	o.SessionLen = 0
	if rs, err := o.Run(); err == nil || !strings.Contains(err.Error(), "SessionLen") {
		t.Fatalf("Table 2: SessionLen 0 not rejected (%d rows, err %v)", len(rs), err)
	}
}

// TestRunVetoClawsBack runs the two-phase campaign end to end on nvi: the
// mined commit veto must prevent some of the baseline's Lose-work
// violations, and the price it paid (deferred commits) must be accounted,
// not hidden.
func TestRunVetoClawsBack(t *testing.T) {
	s := smallStudy("nvi")
	out, err := s.RunVeto()
	if err != nil {
		t.Fatal(err)
	}
	if s.Veto != nil || s.RecordHook != nil {
		t.Fatal("RunVeto leaked phase-2 state into the study")
	}

	// Phase 1 must be byte-for-byte the plain study: veto-off runs are
	// unchanged by the subsystem's existence.
	plain := smallStudy("nvi")
	base, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Baseline, base) {
		t.Fatalf("phase 1 diverged from a veto-free study:\ngot  %+v\nwant %+v", out.Baseline, base)
	}

	if out.BaselineViolations() == 0 {
		t.Fatal("baseline has no violations; campaign too small to measure the veto")
	}
	if out.ClawedBack <= 0 {
		t.Fatalf("veto clawed back %d violations, want > 0 (baseline %d)", out.ClawedBack, out.BaselineViolations())
	}
	if out.VetoedCommits <= 0 {
		t.Fatal("violations disappeared but no commit was vetoed; bookkeeping lost the cost")
	}
	if out.VetoedSaveWork > out.VetoedCommits {
		t.Fatalf("save-work deferrals %d exceed total deferrals %d", out.VetoedSaveWork, out.VetoedCommits)
	}
	for _, d := range out.Deltas {
		if d.Vetoed.Crashes != d.Baseline.Crashes {
			t.Errorf("%s: crashes %d -> %d; the veto must not change the faulted path, only commit placement",
				d.Kind, d.Baseline.Crashes, d.Vetoed.Crashes)
		}
		if d.Vetoed.Violations > d.Baseline.Violations {
			t.Errorf("%s: veto increased violations %d -> %d", d.Kind, d.Baseline.Violations, d.Vetoed.Violations)
		}
	}
	t.Logf("baseline violations %d, clawed back %d, vetoed commits %d (%d at save-work points)",
		out.BaselineViolations(), out.ClawedBack, out.VetoedCommits, out.VetoedSaveWork)
}

// TestRunVetoModeInvariant pins the determinism contract under the veto:
// snapshot-served and from-scratch phase-2 campaigns must agree exactly.
func TestRunVetoModeInvariant(t *testing.T) {
	run := func(snap bool) *VetoOutcome {
		s := smallStudy("nvi")
		s.Snapshots = snap
		out, err := s.RunVeto()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	scratch, snap := run(false), run(true)
	if !reflect.DeepEqual(scratch.Baseline, snap.Baseline) {
		t.Fatal("baseline phase diverges between snapshot and scratch modes")
	}
	if !reflect.DeepEqual(scratch.Vetoed, snap.Vetoed) {
		t.Fatal("veto phase diverges between snapshot and scratch modes")
	}
	if scratch.VetoedCommits != snap.VetoedCommits || scratch.VetoedSaveWork != snap.VetoedSaveWork {
		t.Fatalf("veto cost diverges: scratch (%d, %d) vs snapshot (%d, %d)",
			scratch.VetoedCommits, scratch.VetoedSaveWork, snap.VetoedCommits, snap.VetoedSaveWork)
	}
}
