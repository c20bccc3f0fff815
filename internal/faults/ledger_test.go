package faults

import (
	"bytes"
	"testing"

	"failtrans/internal/obs/ledger"
)

// ledgerBytes runs one configured AppStudy with a ledger attached and
// returns the ledger bytes plus the study results.
func ledgerBytes(t *testing.T, configure func(*AppStudy)) ([]byte, []TypeResult) {
	t.Helper()
	s := smallStudy("nvi")
	configure(s)
	var buf bytes.Buffer
	s.Ledger = ledger.NewWriter(&buf)
	rs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rs
}

// TestLedgerByteIdentity is the ledger's core promise: the bytes are
// invariant across worker counts and snapshot-served execution,
// because records are emitted from the ordered acceptor and hold only
// logical run coordinates.
func TestLedgerByteIdentity(t *testing.T) {
	want, _ := ledgerBytes(t, func(s *AppStudy) {})
	if len(want) == 0 {
		t.Fatal("serial ledger is empty")
	}
	modes := map[string]func(*AppStudy){
		"parallel-4":      func(s *AppStudy) { s.Parallel = 4 },
		"snapshots":       func(s *AppStudy) { s.Snapshots = true },
		"parallel-4-snap": func(s *AppStudy) { s.Parallel = 4; s.Snapshots = true },
		"parallel-7-snap": func(s *AppStudy) { s.Parallel = 7; s.Snapshots = true },
	}
	for name, conf := range modes {
		got, _ := ledgerBytes(t, conf)
		if !bytes.Equal(got, want) {
			t.Errorf("%s ledger diverged from serial (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestOSLedgerByteIdentity is the same promise for the OS study.
func TestOSLedgerByteIdentity(t *testing.T) {
	run := func(configure func(*OSStudy)) []byte {
		o := NewOSStudy("nvi")
		o.CrashTarget = 3
		o.MaxRunsPerType = 12
		o.SessionLen = 120
		configure(o)
		var buf bytes.Buffer
		o.Ledger = ledger.NewWriter(&buf)
		if _, err := o.Run(); err != nil {
			t.Fatal(err)
		}
		if err := o.Ledger.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(func(o *OSStudy) {})
	if len(want) == 0 {
		t.Fatal("serial ledger is empty")
	}
	for name, conf := range map[string]func(*OSStudy){
		"parallel-4": func(o *OSStudy) { o.Parallel = 4 },
		"snapshots":  func(o *OSStudy) { o.Snapshots = true },
	} {
		if got := run(conf); !bytes.Equal(got, want) {
			t.Errorf("%s OS ledger diverged from serial (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestLedgerReproducesStudy checks that the ledger is forensically
// complete: re-aggregating the records reproduces the study's own
// violation/crash counts per fault kind, and the dangerous-path
// cross-check agrees with the emitter on every run with positions.
func TestLedgerReproducesStudy(t *testing.T) {
	raw, rs := ledgerBytes(t, func(s *AppStudy) { s.Parallel = 4 })
	recs, err := ledger.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rp := ledger.Analyze(recs)
	byKind := map[string]*ledger.Group{}
	for _, g := range rp.Agg.Groups() {
		byKind[g.Key.Kind] = g
	}
	for _, tr := range rs {
		g := byKind[tr.Kind.String()]
		if g == nil {
			t.Fatalf("kind %s missing from ledger aggregates", tr.Kind)
		}
		if int(g.Runs) != tr.Runs || int(g.Crashes) != tr.Crashes ||
			int(g.LoseWork) != tr.Violations || int(g.WrongOutput) != tr.WrongOutput {
			t.Errorf("%s: ledger runs/crashes/losework/wrong = %d/%d/%d/%d, study = %d/%d/%d/%d",
				tr.Kind, g.Runs, g.Crashes, g.LoseWork, g.WrongOutput,
				tr.Runs, tr.Crashes, tr.Violations, tr.WrongOutput)
		}
	}
	for _, key := range rp.Miner.Keys() {
		md := rp.Miner.Get(key)
		if md.Checked == 0 {
			t.Errorf("%s: no runs cross-checked", key)
		}
		if md.Mismatched != 0 {
			t.Errorf("%s: %d/%d cross-check mismatches, first: %s",
				key, md.Mismatched, md.Checked, md.FirstMismatch)
		}
	}
}

// TestOSLedgerReproducesStudy is the Table 2 half: ledger aggregates must
// reproduce the OS study's crash/failed-recovery/propagation counts.
func TestOSLedgerReproducesStudy(t *testing.T) {
	o := NewOSStudy("nvi")
	o.CrashTarget = 3
	o.MaxRunsPerType = 12
	o.SessionLen = 120
	o.Parallel = 4
	var buf bytes.Buffer
	o.Ledger = ledger.NewWriter(&buf)
	rs, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rp := ledger.Analyze(recs)
	byKind := map[string]*ledger.Group{}
	for _, g := range rp.Agg.Groups() {
		byKind[g.Key.Kind] = g
	}
	for _, tr := range rs {
		g := byKind[tr.Kind.String()]
		if g == nil {
			t.Fatalf("kind %s missing from ledger aggregates", tr.Kind)
		}
		if int(g.Runs) != tr.Runs || int(g.Crashes) != tr.Crashes ||
			int(g.LoseWork) != tr.FailedRecoveries || int(g.SaveWork) != tr.Propagations {
			t.Errorf("%s: ledger runs/crashes/losework/savework = %d/%d/%d/%d, study = %d/%d/%d/%d",
				tr.Kind, g.Runs, g.Crashes, g.LoseWork, g.SaveWork,
				tr.Runs, tr.Crashes, tr.FailedRecoveries, tr.Propagations)
		}
	}
}

// TestLedgerOptional checks that attaching a ledger does not perturb the
// study results themselves (the ledger is pure observation).
func TestLedgerOptional(t *testing.T) {
	s1 := smallStudy("nvi")
	plain, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, withLedger := ledgerBytes(t, func(s *AppStudy) {})
	if asJSON(t, plain) != asJSON(t, withLedger) {
		t.Fatal("attaching a ledger changed the study results")
	}
}
