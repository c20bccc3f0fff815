package bench

import (
	"fmt"
	"io"

	"failtrans/internal/faults"
)

// VetoResult wraps one application's two-phase commit-veto campaign for
// printing and -json.
type VetoResult struct {
	App     string
	Outcome *faults.VetoOutcome
}

// VetoCampaign runs the two-phase commit-veto campaign for one application:
// phase 1 reproduces the Table 1 study while mining the dangerous-path
// machine in memory, phase 2 re-runs the identical seeds with the mined
// commit veto armed. o.Veto must be empty (phase 1 mines the policy); both
// phases' records (phase 2 flagged 'V') land in o.Ledger when set.
func VetoCampaign(app string, o StudyOptions) (*VetoResult, error) {
	s := faults.NewAppStudy(app)
	o.apply(s, "table1")
	out, err := s.RunVeto()
	if err != nil {
		return nil, err
	}
	return &VetoResult{App: app, Outcome: out}, nil
}

// Print renders the per-kind baseline-vs-veto comparison and the totals.
func (v *VetoResult) Print(w io.Writer) {
	o := v.Outcome
	fmt.Fprintf(w, "Commit veto (two-phase) for %s\n", o.Key)
	fmt.Fprintf(w, "%-20s %10s %10s %10s %12s\n", "Fault Type", "crashes", "base viol", "veto viol", "clawed back")
	for _, d := range o.Deltas {
		fmt.Fprintf(w, "%-20s %10d %10d %10d %12d\n",
			d.Kind, d.Baseline.Crashes, d.Baseline.Violations, d.Vetoed.Violations, d.ClawedBack())
	}
	base := o.BaselineViolations()
	fmt.Fprintf(w, "%-20s %10s %10d %10d %12d\n", "Total", "", base, base-o.ClawedBack, o.ClawedBack)
	fmt.Fprintf(w, "cost: %d commits vetoed, %d at save-work decision points\n", o.VetoedCommits, o.VetoedSaveWork)
	fmt.Fprintf(w, "policy: mined from %d runs, %d commit-unsafe states\n", o.Policy.Runs, len(o.Policy.Unsafe))
}
