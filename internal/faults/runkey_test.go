package faults

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/obs/ledger"
	"failtrans/internal/sim"
)

// table1Inputs computes what a Table 1 run reads besides its key: the clean
// run's visible output and the prefix-snapshot cache.
func table1Inputs(t *testing.T, s *AppStudy) ([]string, *prefixCache) {
	t.Helper()
	clean, err := s.cleanRun()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := s.buildPrefixCache()
	if err != nil {
		t.Fatal(err)
	}
	return clean.Outputs[0], cache
}

// ledgerLine renders rec as the ledger would, with the run index blanked:
// the one column two run indexes with equal keys may differ in.
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

// TestRunDependsOnlyOnKey is the once-table's premise: a run is a function
// of its key, and the keys of one fault kind's run indexes differ only in
// FireAt, so two indexes that draw the same fire point are the same run. A
// fault model that starts drawing anything more per run index must put it
// in the key — and fail here, before Run can serve one index's result to
// another.
func TestRunDependsOnlyOnKey(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		s := smallStudy(app)
		s.RecordHook = func(*ledger.Record) {} // fill records without a ledger file
		clean, cache := table1Inputs(t, s)
		for _, kind := range AppFaultTypes {
			first := map[int64]int{} // fire point -> the first run index drawing it
			var pairs [][2]int
			for run := 0; run < 40; run++ {
				k := s.key(kind, run)
				a, ok := first[k.FireAt]
				if !ok {
					first[k.FireAt] = run
					continue
				}
				if ka := s.key(kind, a); ka != k {
					t.Fatalf("%s %v: runs %d and %d share fire point %d but not their key:\n%+v\n%+v", app, kind, a, run, k.FireAt, ka, k)
				}
				pairs = append(pairs, [2]int{a, run})
			}
			if len(pairs) < 3 {
				t.Fatalf("%s %v: only %d run pairs share a key in 40 draws", app, kind, len(pairs))
			}
			for _, p := range pairs {
				a, err := s.runOne(s.key(kind, p[0]), clean, cache)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s.runOne(s.key(kind, p[1]), clean, cache)
				if err != nil {
					t.Fatal(err)
				}
				if la, lb := ledgerLine(t, a.Rec), ledgerLine(t, b.Rec); la != lb {
					t.Errorf("%s %v: runs %d and %d share a key but their ledger lines differ:\n%s%s", app, kind, p[0], p[1], la, lb)
				}
				a.Rec, b.Rec = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s %v: runs %d and %d share a key but their results differ:\n%+v\n%+v", app, kind, p[0], p[1], a, b)
				}
			}
		}
	}
}

// kindNamed is the fault kind a ledger record's kind column names.
func kindNamed(t *testing.T, name string) sim.FaultKind {
	t.Helper()
	for _, k := range AppFaultTypes {
		if k.String() == name {
			return k
		}
	}
	t.Fatalf("no fault kind is named %q", name)
	return sim.NoFault
}

// rerunLedger re-executes every record of a study's ledger from the key
// keyOf rebuilds from it, and holds the re-runs' ledger to the original,
// byte for byte.
func rerunLedger(t *testing.T, name string, raw []byte, keyOf func(ledger.Record) RunKey, runOne func(RunKey) (RunResult, error)) {
	t.Helper()
	recs, err := ledger.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s: empty ledger", name)
	}
	var again bytes.Buffer
	lw := ledger.NewWriter(&again)
	for _, rec := range recs {
		res, err := runOne(keyOf(rec))
		if err != nil {
			t.Fatal(err)
		}
		res.Rec.Run = rec.Run
		lw.Append(res.Rec)
		ledger.Put(res.Rec)
	}
	if err := lw.Err(); err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(string(raw), "\n"), strings.Split(again.String(), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s: line %d of the re-run ledger differs from the study's:\n got %q\nwant %q", name, i+1, got[min(i, len(got)-1)], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: re-run ledger has %d lines, the study's %d", name, len(got), len(want))
	}
}

// TestRunKeyRoundTrip re-runs every record of a Table 1 and a Table 2
// ledger from its own header and gets the identical line back: the header
// names the run. A Table 1 header holds its whole key. A Table 2 record
// does not carry its Variant, which the record's run index derives, so that
// key comes from OSStudy.key, and the byte comparison checks that it stamps
// the record's header back.
func TestRunKeyRoundTrip(t *testing.T) {
	for _, app := range []string{"nvi", "postgres"} {
		s := smallStudy(app)
		var buf bytes.Buffer
		s.Ledger = ledger.NewWriter(&buf)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		clean, cache := table1Inputs(t, s)
		rerunLedger(t, "table1/"+app, buf.Bytes(),
			func(r ledger.Record) RunKey {
				return RunKey{Study: r.Study, App: r.App, Protocol: r.Protocol, Kind: kindNamed(t, r.Kind), Seed: r.Seed, FireAt: r.FireAt}
			},
			func(k RunKey) (RunResult, error) { return s.runOne(k, clean, cache) })

		o := NewOSStudy(app)
		o.CrashTarget = 3
		o.MaxRunsPerType = 12
		o.SessionLen = 120
		buf.Reset()
		o.Ledger = ledger.NewWriter(&buf)
		if _, err := o.Run(); err != nil {
			t.Fatal(err)
		}
		w, err := o.cleanRun()
		if err != nil {
			t.Fatal(err)
		}
		osCache, err := o.buildOSPrefixCache(w.Clock)
		if err != nil {
			t.Fatal(err)
		}
		rerunLedger(t, "table2/"+app, buf.Bytes(),
			func(r ledger.Record) RunKey { return o.key(kindNamed(t, r.Kind), r.Run, w.Clock) },
			func(k RunKey) (RunResult, error) { return o.runOne(k, osCache) })
	}
}
