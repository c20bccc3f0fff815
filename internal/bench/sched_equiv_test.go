package bench

import (
	"encoding/json"
	"testing"

	"failtrans/internal/sim"
)

// These tests are the cross-layer half of the scheduler-equivalence
// guarantee (the sim package pins the per-world edge cases): full seeded
// studies — fault campaigns and the Figure 8 sweep — must serialize to
// byte-identical JSON whichever scheduler built their worlds.
// TestExecutionModeMatrix's scan cell extends the comparison to ledgers,
// Table 2 and a Perfetto trace.

// withScan runs fn with the package-default scheduler forced to the legacy
// scan, restoring the default afterwards.
func withScan(fn func()) {
	prev := sim.DefaultScanSched
	sim.DefaultScanSched = true
	defer func() { sim.DefaultScanSched = prev }()
	fn()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestTable1ScanIndexedIdentical(t *testing.T) {
	indexed, err := Table1(StudyOptions{Crashes: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var scan *Table1Result
	withScan(func() { scan, err = Table1(StudyOptions{Crashes: 2, Workers: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, indexed), mustJSON(t, scan); got != want {
		t.Errorf("table1 JSON diverged between schedulers:\nindexed: %s\nscan:    %s", got, want)
	}
}

func TestFig8ScanIndexedIdentical(t *testing.T) {
	indexed, err := Fig8("nvi", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scan *Fig8Result
	withScan(func() { scan, err = Fig8("nvi", 1, 2, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, indexed), mustJSON(t, scan); got != want {
		t.Errorf("fig8 JSON diverged between schedulers:\nindexed: %s\nscan:    %s", got, want)
	}
}

// TestFleetCurvesShape runs the sweep at 10² and 10⁴ processes and checks
// that every size carries one NONE row plus one row per measured protocol,
// each with measurements. FleetCurves itself fails on a fleet that does not
// finish.
func TestFleetCurvesShape(t *testing.T) {
	sizes := []int{100, 10_000}
	res, err := FleetCurves(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		var none, proto int
		for _, p := range res.Points {
			if p.Procs != n {
				continue
			}
			if p.Protocol == "NONE" {
				none++
			} else {
				proto++
			}
			if p.Steps == 0 || p.StepNs <= 0 {
				t.Errorf("point %+v has empty measurements", p)
			}
		}
		if none != 1 || proto != 7 {
			t.Errorf("n=%d: %d NONE rows and %d protocol rows, want 1 and 7 (the measured protocol set)", n, none, proto)
		}
	}
}
