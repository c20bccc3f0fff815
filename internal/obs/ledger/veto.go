package ledger

import "failtrans/internal/statemachine"

// The veto bridge: a mined machine's dangerous-path coloring, exported as
// a statemachine.VetoPolicy keyed by the miner's state names. Because the
// mined states live in commit-count space, a live run can locate itself in
// the machine with nothing but its own commit count and fault activation
// point — the same coordinates CommitStateKey/ActStateKey name — and dc's
// CommitVeto hook can ask "is the state I'm about to commit in doomed?"
// without replaying anything.

// VetoPolicy exports the mined machine's current coloring as a commit-veto
// policy: every named state where CommitUnsafeAt holds is unsafe.
func (md *Mined) VetoPolicy() *statemachine.VetoPolicy {
	return statemachine.NewVetoPolicyFromColoring(md.Key, md.Runs, md.states, md.Coloring())
}
