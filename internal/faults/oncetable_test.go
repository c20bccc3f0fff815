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

// ledgerLine renders rec as the ledger would, with the run index blanked:
// the one column two draws of the same injection cell may differ in.
func ledgerLine(t *testing.T, rec *ledger.Record) string {
	t.Helper()
	if rec == nil {
		t.Fatal("run filled no ledger record")
	}
	cp := *rec
	cp.Run = 0
	var buf bytes.Buffer
	lw := ledger.NewWriter(&buf)
	lw.Append(&cp)
	if err := lw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunOneDependsOnlyOnFirePoint is the once-table's premise: an
// injection seed picks a fire point and nothing else, so two seeds that
// draw the same fire point are the same run. A fault model that starts
// consuming the seed for anything more must fail here, before it can make
// Run serve one seed's result to another.
func TestRunOneDependsOnlyOnFirePoint(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		s := smallStudy(app)
		s.RecordHook = func(*ledger.Record) {} // fill records without a ledger file
		clean, err := s.cleanOutputs(s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := s.buildPrefixCache()
		if err != nil {
			t.Fatal(err)
		}
		firstSeed := map[int]int64{} // fire point -> the first seed drawing it
		var pairs [][2]int64
		for run := 0; run < 40; run++ {
			seed := s.injSeedFor(run)
			at := s.fireAtFor(seed)
			if first, ok := firstSeed[at]; ok {
				pairs = append(pairs, [2]int64{first, seed})
			} else {
				firstSeed[at] = seed
			}
		}
		if len(pairs) < 3 {
			t.Fatalf("%s: only %d seed pairs share a fire point in 40 draws", app, len(pairs))
		}
		for _, kind := range AppFaultTypes {
			for _, p := range pairs {
				a, err := s.runOne(kind, p[0], clean, cache)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s.runOne(kind, p[1], clean, cache)
				if err != nil {
					t.Fatal(err)
				}
				if la, lb := ledgerLine(t, a.Rec), ledgerLine(t, b.Rec); la != lb {
					t.Errorf("%s %v: seeds %d and %d share fire point %d but their ledger lines differ:\n%s%s",
						app, kind, p[0], p[1], s.fireAtFor(p[0]), la, lb)
				}
				a.Rec, b.Rec = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s %v: seeds %d and %d share fire point %d but their results differ:\n%+v\n%+v",
						app, kind, p[0], p[1], s.fireAtFor(p[0]), a, b)
				}
			}
		}
	}
}

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
func everyRunExecuted(t *testing.T, s *AppStudy) (*studyTrail, map[string]bool) {
	t.Helper()
	tr, buf := attachTrail(s)
	clean, err := s.cleanOutputs(s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := s.buildPrefixCache()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{} // the (kind, fire point) cells the accepted runs drew
	for _, kind := range AppFaultTypes {
		res := TypeResult{Kind: kind}
		for run := 0; run < s.MaxRunsPerType && res.Crashes < s.CrashTarget; run++ {
			seed := s.injSeedFor(run)
			distinct[fmt.Sprint(kind, "@", s.fireAtFor(seed))] = true
			r, err := s.runOne(kind, seed, clean, cache)
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
