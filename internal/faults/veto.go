package faults

import (
	"fmt"

	"failtrans/internal/obs/ledger"
	"failtrans/internal/statemachine"
)

// The two-phase veto campaign: phase 1 runs the study as-is while an
// in-memory miner folds every accepted run into the per-app dangerous-path
// machine; its coloring becomes a commit-veto policy; phase 2 re-runs the
// identical seeds with the veto armed. Commits do not alter the faulted
// execution path (they checkpoint state and charge virtual time; the
// injected fault fires by fault-site visit count either way), so the two
// phases visit the same runs, crash the same runs, and differ only in
// where commits landed — which is exactly the Lose-work delta the paper's
// ">90% unrecoverable" number is about, and the induced Save-work cost the
// veto pays for it.

// VetoDelta is one fault kind's baseline-vs-veto comparison.
type VetoDelta struct {
	Kind     string
	Baseline TypeResult
	Vetoed   TypeResult
}

// ClawedBack is the number of Lose-work violations (commits on the
// dangerous path among crashed runs) the veto prevented for this kind.
func (d VetoDelta) ClawedBack() int { return d.Baseline.Violations - d.Vetoed.Violations }

// VetoOutcome is a two-phase campaign's full result.
type VetoOutcome struct {
	// Key is the mined machine the policy came from; Policy the policy
	// itself — the one ftbench -veto arms from the same machine, mined
	// out of the campaign's ledger.
	Key    string
	Policy *statemachine.VetoPolicy
	// Baseline and Vetoed are the two phases' per-kind results, in
	// AppFaultTypes order; Deltas pairs them up.
	Baseline []TypeResult
	Vetoed   []TypeResult
	Deltas   []VetoDelta
	// ClawedBack totals the violations prevented; VetoedCommits the
	// commits the policy deferred across phase 2; VetoedSaveWork the
	// deferrals at Save-work decision points (visible output left
	// uncovered by a commit — the induced cost).
	ClawedBack     int
	VetoedCommits  int
	VetoedSaveWork int
}

// BaselineViolations sums phase 1's violations.
func (v *VetoOutcome) BaselineViolations() int {
	n := 0
	for _, t := range v.Baseline {
		n += t.Violations
	}
	return n
}

// RunVeto executes the two-phase campaign. The study must not already
// carry a veto policy; its Ledger (when set) receives both phases'
// records — phase 2's marked with the 'V' flag — so one file feeds
// ftreport's veto section.
func (s *AppStudy) RunVeto() (*VetoOutcome, error) {
	if s.Veto != nil {
		return nil, fmt.Errorf("faults: RunVeto needs a veto-free study (phase 1 mines the policy)")
	}
	mn := ledger.NewMiner()
	prevHook := s.RecordHook
	s.RecordHook = func(r *ledger.Record) {
		mn.Add(r)
		if prevHook != nil {
			prevHook(r)
		}
	}
	base, err := s.Run()
	s.RecordHook = prevHook
	if err != nil {
		return nil, err
	}
	key := "table1/" + s.App + "/" + s.Policy.Name
	md := mn.Get(key)
	if md == nil {
		return nil, fmt.Errorf("faults: phase 1 mined no machine for %q (keys: %v)", key, mn.Keys())
	}
	out := &VetoOutcome{Key: key, Policy: md.VetoPolicy(), Baseline: base}
	s.Veto = out.Policy
	s.RecordHook = func(r *ledger.Record) {
		out.VetoedCommits += r.VetoN
		out.VetoedSaveWork += r.VetoSaveWorkN
		if prevHook != nil {
			prevHook(r)
		}
	}
	vet, err := s.Run()
	s.Veto = nil
	s.RecordHook = prevHook
	if err != nil {
		return nil, err
	}
	out.Vetoed = vet
	for i := range base {
		if i >= len(vet) {
			break
		}
		d := VetoDelta{Kind: base[i].Kind.String(), Baseline: base[i], Vetoed: vet[i]}
		out.Deltas = append(out.Deltas, d)
		out.ClawedBack += d.ClawedBack()
	}
	return out, nil
}
