// Commit-veto policies: a dangerous-paths coloring by state name. A
// VetoPolicy names the machine's states (the mined machines key them in
// commit-count space, e.g. "c3" or "a2/stop:1") and records which of those
// states are doomed — states where CommitUnsafeAt holds, so a commit taken
// there lies on a dangerous path. dc consults the policy at each commit
// decision point and defers commits in doomed states. A policy is always
// built from a machine mined in memory: a veto campaign mines its phase-1
// records, and ftbench -veto mines the campaign ledgers it is given.
package statemachine

// VetoPolicy is one machine's commit-veto verdicts, keyed by state name.
type VetoPolicy struct {
	// Key identifies the machine the policy was mined from
	// (study/app/protocol for ledger-mined machines).
	Key string
	// Runs counts the runs the source machine merged — the policy's
	// evidence base.
	Runs int64
	// Unsafe holds the names of states where a commit is vetoed.
	Unsafe map[string]bool
}

// CommitUnsafe reports whether a commit in the named state is vetoed.
// A nil policy vetoes nothing, and so does an unknown state: the veto
// is evidence-based, and a state the mining never saw carries none.
func (p *VetoPolicy) CommitUnsafe(state string) bool {
	if p == nil {
		return false
	}
	return p.Unsafe[state]
}

// NewVetoPolicyFromColoring builds a policy from a coloring and a state
// naming. Crash states and doomed states (CommitUnsafeAt) are unsafe.
func NewVetoPolicyFromColoring(key string, runs int64, names map[string]StateID, col *Coloring) *VetoPolicy {
	p := &VetoPolicy{Key: key, Runs: runs, Unsafe: make(map[string]bool)}
	for name, id := range names {
		if col.CommitUnsafeAt(id) {
			p.Unsafe[name] = true
		}
	}
	return p
}
