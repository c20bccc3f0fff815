package ledger

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// vetoRecords is a small table1-shaped campaign: runs through "c0 c1 c2"
// that always crash after a post-activation commit (dooming that chain),
// plus runs that survive the same prefix, so the mined machine has both
// doomed and safe states.
func vetoRecords() []Record {
	mk := func(run int, kind string, outcome Outcome, commits []int, act int) Record {
		r := Record{Run: run, Study: "table1", App: "nvi", Protocol: "CPVS", Medium: "rio",
			Kind: kind, Seed: 1, FireAt: 10, Outcome: outcome,
			Activation: act, Crash: -1, Steps: 50, WorldSteps: 60, PrefixSteps: 5,
			VClockUS: 100, RollbackDepth: -1, CommitN: len(commits), Commits: commits,
			ViolFirst: -1}
		if outcome == Inert {
			r.FireAt = -1
			r.Activation = -1
		}
		return r
	}
	return []Record{
		// stop faults: activation at step 20 after 2 commits, then one more
		// commit, then crash — every run; the post-activation chain is doomed.
		mk(0, "stop", Crashed, []int{3, 8, 25}, 20),
		mk(1, "stop", Crashed, []int{3, 8, 25}, 20),
		// the same pre-activation prefix survives in other runs, keeping
		// c0..c2 safe.
		mk(2, "stop", Inert, []int{3, 8}, -1),
		mk(3, "stop", Completed, []int{3, 8}, 20),
	}
}

// TestLedgerMineVetoRoundTrip closes the loop the subsystem exists for:
// records → mined machine → VetoPolicy must reproduce the coloring's
// verdict for every mined state.
func TestLedgerMineVetoRoundTrip(t *testing.T) {
	mn := NewMiner()
	recs := vetoRecords()
	for i := range recs {
		mn.Add(&recs[i])
	}
	md := mn.Get("table1/nvi/CPVS")
	if md == nil {
		t.Fatalf("no machine mined (keys %v)", mn.Keys())
	}
	col := md.Coloring()
	pol := md.VetoPolicy()
	if pol.Key != md.Key || pol.Runs != md.Runs {
		t.Fatalf("policy header (%s, %d), want (%s, %d)", pol.Key, pol.Runs, md.Key, md.Runs)
	}
	unsafe := 0
	for name, id := range md.states {
		if got, want := pol.CommitUnsafe(name), col.CommitUnsafeAt(id); got != want {
			t.Errorf("in-memory policy: %s = %v, coloring says %v", name, got, want)
		}
		if pol.CommitUnsafe(name) {
			unsafe++
		}
	}
	// The always-crashing post-activation state must be doomed; the state
	// a survivor (run 3) passed through must not be, and neither may the
	// shared pre-activation prefix.
	if !pol.CommitUnsafe(ActStateKey(2, "stop", 1)) {
		t.Error("always-fatal post-activation state not vetoed")
	}
	if pol.CommitUnsafe(ActStateKey(2, "stop", 0)) {
		t.Error("post-activation state with a surviving continuation vetoed")
	}
	for k := 0; k <= 2; k++ {
		if pol.CommitUnsafe(CommitStateKey(k)) {
			t.Errorf("pre-activation state %s vetoed; survivors pass through it", CommitStateKey(k))
		}
	}
	if unsafe == 0 {
		t.Fatal("policy vetoes nothing")
	}
}

// TestVetoPhaseMinesSeparately pins the MineKey split: a veto-phase record
// must not fold into — and corrupt — the baseline machine its policy came
// from.
func TestVetoPhaseMinesSeparately(t *testing.T) {
	mn := NewMiner()
	recs := vetoRecords()
	for i := range recs {
		mn.Add(&recs[i])
		v := recs[i]
		v.VetoActive = true
		mn.Add(&v)
	}
	base, veto := mn.Get("table1/nvi/CPVS"), mn.Get("table1/nvi/CPVS/veto")
	if base == nil || veto == nil {
		t.Fatalf("want both baseline and veto machines, keys %v", mn.Keys())
	}
	if base.Runs != int64(len(recs)) || veto.Runs != int64(len(recs)) {
		t.Fatalf("runs split %d/%d, want %d each", base.Runs, veto.Runs, len(recs))
	}
}

// TestReadAllTruncatedAtEveryByte is the S3 sweep: for every prefix of a
// valid ledger the reader must return a clean record prefix and either nil
// or an error wrapping ErrTruncated — never a panic, never silent
// acceptance of a torn line as data.
func TestReadAllTruncatedAtEveryByte(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		w.Append(&recs[i])
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	all, err := ReadAll(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		got, err := ReadAll(bytes.NewReader(full[:cut]))
		if cut == len(full) {
			if err != nil {
				t.Fatalf("full input: %v", err)
			}
		} else if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: error %v does not wrap ErrTruncated", cut, err)
		} else if err == nil && full[cut-1] != '\n' {
			// Only a cut landing exactly after a newline is a complete file.
			t.Fatalf("cut at %d (mid-line) accepted without error", cut)
		}
		if len(got) > len(all) || (len(got) > 0 && !reflect.DeepEqual(got, all[:len(got)])) {
			t.Fatalf("cut at %d: records are not a prefix of the full parse", cut)
		}
	}
}
