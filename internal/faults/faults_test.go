package faults

import (
	"strings"
	"testing"

	"failtrans/internal/sim"
)

func TestNviSessionDeterministicAndTerminated(t *testing.T) {
	a := NviSession(7, 200)
	b := NviSession(7, 200)
	if a != b {
		t.Error("session generation must be deterministic")
	}
	if !strings.HasSuffix(a, ":wq\n") {
		t.Error("session must end with :wq")
	}
	if len(a) < 200 {
		t.Errorf("session length %d < 200", len(a))
	}
	if NviSession(8, 200) == a {
		t.Error("different seeds should give different sessions")
	}
}

func TestPostgresSessionShape(t *testing.T) {
	qs := PostgresSession(3, 100)
	if qs[len(qs)-1] != "quit" {
		t.Error("session must end with quit")
	}
	kinds := map[string]int{}
	for _, q := range qs {
		kinds[strings.Fields(q)[0]]++
	}
	for _, k := range []string{"insert", "select", "scan"} {
		if kinds[k] == 0 {
			t.Errorf("session has no %s operations", k)
		}
	}
	if kinds["insert"] < kinds["select"] {
		t.Error("inserts should dominate (growing keyspace)")
	}
}

// smallStudy shrinks the study for test runtime.
func smallStudy(app string) *AppStudy {
	s := NewAppStudy(app)
	s.CrashTarget = 4
	s.MaxRunsPerType = 30
	s.SessionLen = 150
	return s
}

func TestAppStudyNvi(t *testing.T) {
	s := smallStudy("nvi")
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("results for %d types, want 7", len(results))
	}
	totalCrashes, totalViolations := 0, 0
	for _, tr := range results {
		t.Logf("nvi %-18s runs=%-3d crashes=%-2d violations=%-2d (%.0f%%) wrong=%d",
			tr.Kind, tr.Runs, tr.Crashes, tr.Violations, tr.ViolationPct(), tr.WrongOutput)
		totalCrashes += tr.Crashes
		totalViolations += tr.Violations
		if tr.Violations > tr.Crashes {
			t.Errorf("%v: violations exceed crashes", tr.Kind)
		}
	}
	if totalCrashes == 0 {
		t.Fatal("no fault type crashed nvi; injection inert")
	}
	if totalViolations == 0 {
		t.Error("no Lose-work violations at all; latency modeling looks wrong")
	}
	if totalViolations == totalCrashes {
		t.Error("every crash violated; immediate-crash faults should be clean")
	}
}

func TestAppStudyPostgres(t *testing.T) {
	s := smallStudy("postgres")
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	totalCrashes, totalViolations := 0, 0
	for _, tr := range results {
		t.Logf("postgres %-18s runs=%-3d crashes=%-2d violations=%-2d (%.0f%%)",
			tr.Kind, tr.Runs, tr.Crashes, tr.Violations, tr.ViolationPct())
		totalCrashes += tr.Crashes
		totalViolations += tr.Violations
	}
	if totalCrashes == 0 {
		t.Fatal("no fault type crashed postgres")
	}
}

// TestEndToEndMatchesTimeline is the paper's validation: "runs recovered
// from crashes if and only if they did not commit after fault activation."
func TestEndToEndMatchesTimeline(t *testing.T) {
	s := smallStudy("nvi")
	clean, cache := table1Inputs(t, s)
	checked := 0
	for _, kind := range []sim.FaultKind{sim.HeapBitFlip, sim.InitFault, sim.DeleteBranch} {
		for run := 0; run < 20 && checked < 12; run++ {
			res, err := s.runOne(s.key(kind, run), clean, cache)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Crashed {
				continue
			}
			checked++
			if res.Violation == res.Recovered {
				t.Errorf("%v run %d: violation=%v but recovered=%v (should be opposites)",
					kind, run, res.Violation, res.Recovered)
			}
		}
	}
	if checked < 4 {
		t.Fatalf("only %d crashing runs checked", checked)
	}
}

func TestOSStudySmall(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		o := NewOSStudy(app)
		o.CrashTarget = 3
		o.MaxRunsPerType = 15
		o.SessionLen = 150
		results, err := o.Run()
		if err != nil {
			t.Fatal(err)
		}
		crashes, failures := 0, 0
		for _, tr := range results {
			t.Logf("%s OS %-18s runs=%-3d crashes=%-2d failed=%-2d (%.0f%%)",
				app, tr.Kind, tr.Runs, tr.Crashes, tr.FailedRecoveries, tr.FailurePct())
			crashes += tr.Crashes
			failures += tr.FailedRecoveries
			if tr.FailedRecoveries > tr.Crashes {
				t.Errorf("%v: failures exceed crashes", tr.Kind)
			}
		}
		if crashes == 0 {
			t.Fatalf("%s: no kernel fault crashed anything", app)
		}
		if failures == crashes {
			t.Errorf("%s: every crash failed recovery; stop failures should mostly recover", app)
		}
	}
}

func TestUnknownApp(t *testing.T) {
	s := NewAppStudy("emacs")
	if _, err := s.Run(); err == nil {
		t.Error("unknown app must error")
	}
}
