package faults

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"failtrans/internal/obs"
	"failtrans/internal/obs/ledger"
	"failtrans/internal/sim"
)

// studyTrail is everything a Table 1 study leaves behind.
type studyTrail struct {
	results []TypeResult
	ledger  []byte
	hooked  []ledger.Record // RecordHook's arguments, in call order
}

// attachTrail points s's ledger and record hook at a fresh trail. The hook
// scribbles over each record once it has copied it: accept owns what it is
// handed, and nothing it does to a record may reach a later draw of the
// same cell.
func attachTrail(s *AppStudy) (*studyTrail, *bytes.Buffer) {
	tr := &studyTrail{}
	buf := &bytes.Buffer{}
	s.Ledger = ledger.NewWriter(buf)
	s.RecordHook = func(r *ledger.Record) {
		cp := *r
		cp.Commits = append([]int(nil), r.Commits...)
		tr.hooked = append(tr.hooked, cp)
		for i := range r.Commits {
			r.Commits[i] = -7
		}
		r.Commits = append(r.Commits, -8, -9)
		r.Kind, r.FireAt, r.Outcome, r.Crash, r.VetoN = "scribbled", -7, ledger.Inert, -7, -7
	}
	return tr, buf
}

// everyRunExecuted is the oracle Run's once-table is held to: the serial
// loop that executes runOne for every run index, repeats included, with
// Run's accept logic.
func everyRunExecuted(t *testing.T, s *AppStudy) (*studyTrail, map[RunKey]bool) {
	t.Helper()
	tr, buf := attachTrail(s)
	clean, cache := table1Inputs(t, s)
	distinct := map[RunKey]bool{} // the keys the accepted runs drew
	for _, kind := range AppFaultTypes {
		res := TypeResult{Kind: kind}
		for run := 0; run < s.MaxRunsPerType && res.Crashes < s.CrashTarget; run++ {
			k := s.key(kind, run)
			distinct[k] = true
			r, err := s.runOne(k, clean, cache)
			if err != nil {
				t.Fatal(err)
			}
			s.acceptLedger(run, r.Rec)
			res.Runs++
			if r.WrongOutput {
				res.WrongOutput++
			}
			if r.Crashed {
				res.Crashes++
				if r.Violation {
					res.Violations++
				}
			}
		}
		tr.results = append(tr.results, res)
	}
	if err := s.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	tr.ledger = buf.Bytes()
	return tr, distinct
}

// TestTable1OnceTableMatchesEveryRunExecuted holds Run, which executes each
// distinct injection cell once, to the loop that executes every run index:
// same results, same ledger bytes, same record-hook sequence, serial and
// parallel, veto off and on — and checks the counters say the repeats were
// served, not re-run.
func TestTable1OnceTableMatchesEveryRunExecuted(t *testing.T) {
	// The veto-armed shape is ftbench -experiment veto's phase 2: a policy
	// mined from phase 1 of the same study.
	mined, err := smallStudy("nvi").RunVeto()
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		mk   func() *AppStudy
	}{
		{"nvi", func() *AppStudy { return smallStudy("nvi") }},
		{"postgres", func() *AppStudy { return smallStudy("postgres") }},
		{"nvi-veto", func() *AppStudy {
			s := smallStudy("nvi")
			s.Veto = mined.Policy
			return s
		}},
	}
	for _, shape := range shapes {
		want, distinct := everyRunExecuted(t, shape.mk())
		var runs int64
		for _, r := range want.results {
			runs += int64(r.Runs)
		}
		if int64(len(distinct)) == runs {
			t.Fatalf("%s: no run index repeats a cell; the study is too small to test reuse", shape.name)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/parallel-%d", shape.name, workers)
			s := shape.mk()
			s.Parallel = workers
			m := obs.NewCampaignMetrics(workers)
			s.CampaignObs = m
			got, buf := attachTrail(s)
			if got.results, err = s.Run(); err != nil {
				t.Fatal(err)
			}
			if err := s.Ledger.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("%s: results differ:\n got %+v\nwant %+v", name, got.results, want.results)
			}
			if !bytes.Equal(buf.Bytes(), want.ledger) {
				t.Errorf("%s: ledger differs from the every-run loop's (%d vs %d bytes)", name, buf.Len(), len(want.ledger))
			}
			if !reflect.DeepEqual(got.hooked, want.hooked) {
				t.Errorf("%s: RecordHook saw a different record sequence (%d vs %d records)", name, len(got.hooked), len(want.hooked))
			}

			cells, reused := m.Cells.Load(), m.Reused.Load()
			if cells+reused != m.Accepted+m.Discarded {
				t.Errorf("%s: cells %d + reused %d != accepted %d + discarded %d", name, cells, reused, m.Accepted, m.Discarded)
			}
			if max := int64(len(AppFaultTypes) * s.fireSpan()); cells > max {
				t.Errorf("%s: %d cells executed, more than the %d there are", name, cells, max)
			}
			if m.Accepted != runs {
				t.Errorf("%s: accepted %d runs, the every-run loop %d", name, m.Accepted, runs)
			}
			// Serially nothing is speculative: exactly the drawn cells run.
			if workers == 1 && (cells != int64(len(distinct)) || reused != runs-cells) {
				t.Errorf("%s: cells=%d reused=%d, want %d distinct cells and %d repeats", name, cells, reused, len(distinct), runs-int64(len(distinct)))
			}
		}
	}
}

// TestInjectionCellExecutesOnce pins the cell itself: one execution however
// many demands, an error stored like a result, and every demand handed a
// record of its own.
func TestInjectionCellExecutesOnce(t *testing.T) {
	m := obs.NewCampaignMetrics(1)
	executions := 0
	master := ledger.Get()
	master.Kind, master.Commits = sim.HeapBitFlip.String(), append(master.Commits, 3, 9)
	run := func() (RunResult, error) {
		executions++
		return RunResult{Crashed: true, Rec: master}, nil
	}
	var c injectionCell
	var seen []*ledger.Record
	for i := 0; i < 3; i++ {
		res, err := c.demand(run, m)
		if err != nil || !res.Crashed {
			t.Fatalf("demand %d: res %+v err %v", i, res, err)
		}
		for _, prev := range append(seen, master) {
			if res.Rec == prev {
				t.Fatalf("demand %d was handed a record another holder has", i)
			}
		}
		if res.Rec.Kind != master.Kind || !reflect.DeepEqual(res.Rec.Commits, []int{3, 9}) {
			t.Fatalf("demand %d: record %+v is not a copy of the master", i, res.Rec)
		}
		res.Rec.Commits[0] = -1 // must not reach the master
		seen = append(seen, res.Rec)
	}
	if executions != 1 || m.Cells.Load() != 1 || m.Reused.Load() != 2 {
		t.Errorf("executions=%d cells=%d reused=%d, want 1, 1, 2", executions, m.Cells.Load(), m.Reused.Load())
	}

	var failing injectionCell
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := failing.demand(func() (RunResult, error) { return RunResult{}, boom }, nil); !errors.Is(err, boom) {
			t.Errorf("demand %d of a failed cell: err %v, want the stored error", i, err)
		}
	}
}
