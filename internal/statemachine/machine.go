// Package statemachine implements the paper's process model — a process is
// a finite state machine whose transitions are events — and the two
// dangerous-paths algorithms of Section 2.5 that underlie the Lose-work
// theorem.
//
// A crash event is a transition into a crash state (a state "filled black"
// in the paper's figures), from which the process cannot continue. The
// Single-Process Dangerous Paths Algorithm colors the set of events along
// which a commit could make recovery from a propagation failure impossible:
//
//   - color all crash events;
//   - color an event e if all events out of e's end state are colored;
//   - color an event e if at least one event out of e's end state is
//     colored and is a fixed non-deterministic event.
//
// The Multi-Process Dangerous Paths Algorithm reclassifies a process's
// receive events as transient or fixed non-deterministic based on a snapshot
// of where every other process last committed, then runs the single-process
// algorithm.
package statemachine

import (
	"fmt"
	"slices"

	"failtrans/internal/event"
)

// StateID names a state of a machine. States are dense, in [0, NumStates).
type StateID int

// EventID names a transition (an event type) of a machine. Event IDs are
// dense, in [0, len(Edges)).
type EventID int

// Edge is one transition of the machine. Multiple edges out of one state
// with the same observable cause model a non-deterministic choice.
type Edge struct {
	From, To StateID
	// ND classifies the transition's determinism. A state with several
	// outgoing edges representing alternative results of one action
	// should mark all of them with the action's ND class.
	ND event.NDClass
	// Msg tags receive edges with a message identity for the
	// multi-process algorithm; zero for non-receive edges.
	Msg int64
	// Label is a human-readable description with no semantic weight.
	Label string
}

// Machine is a single process's finite state machine.
type Machine struct {
	NumStates int
	Start     StateID
	Edges     []Edge
	// CrashStates marks states from which execution cannot continue.
	// Every edge into a crash state is a crash event.
	CrashStates map[StateID]bool
}

// New returns an empty machine with n states starting at state 0.
func New(n int) *Machine {
	return &Machine{NumStates: n, CrashStates: make(map[StateID]bool)}
}

// AddEdge appends a transition and returns its EventID.
func (m *Machine) AddEdge(e Edge) EventID {
	m.Edges = append(m.Edges, e)
	return EventID(len(m.Edges) - 1)
}

// MarkCrash marks state s as a crash state.
func (m *Machine) MarkCrash(s StateID) { m.CrashStates[s] = true }

// Validate checks structural sanity: states (crash states included) in
// range, crash states have no outgoing edges.
func (m *Machine) Validate() error {
	for i, e := range m.Edges {
		if e.From < 0 || int(e.From) >= m.NumStates {
			return fmt.Errorf("statemachine: edge %d: from-state %d out of range", i, e.From)
		}
		if e.To < 0 || int(e.To) >= m.NumStates {
			return fmt.Errorf("statemachine: edge %d: to-state %d out of range", i, e.To)
		}
		if m.CrashStates[e.From] {
			return fmt.Errorf("statemachine: edge %d leaves crash state %d", i, e.From)
		}
	}
	if m.Start < 0 || int(m.Start) >= m.NumStates {
		return fmt.Errorf("statemachine: start state %d out of range", m.Start)
	}
	var bad []StateID
	for s, crash := range m.CrashStates {
		if crash && (s < 0 || int(s) >= m.NumStates) {
			bad = append(bad, s)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("statemachine: crash state %d out of range", slices.Min(bad))
	}
	return nil
}

// outgoing returns edge IDs grouped by from-state.
func (m *Machine) outgoing() [][]EventID {
	out := make([][]EventID, m.NumStates)
	for i, e := range m.Edges {
		out[e.From] = append(out[e.From], EventID(i))
	}
	return out
}

// IsCrashEvent reports whether edge id ends in a crash state.
func (m *Machine) IsCrashEvent(id EventID) bool {
	return m.CrashStates[m.Edges[id].To]
}

// Coloring is the result of the dangerous-paths computation.
type Coloring struct {
	m *Machine
	// Colored[id] reports that edge id lies on a dangerous path.
	Colored []bool
	// out caches the machine's adjacency (edge IDs grouped by from-state)
	// as of the fixpoint run, so per-commit queries like CommitUnsafeAt
	// cost O(out-degree) instead of rebuilding the O(E) index each call.
	out [][]EventID
}

// DangerousPaths runs the Single-Process Dangerous Paths Algorithm to a
// fixpoint and returns the coloring.
//
// One refinement over the paper's prose: the rule "color e if all events out
// of e's end state are colored" applies only to end states that have at
// least one outgoing event. A state with no outgoing events that is not a
// crash state models successful completion, and committing there is safe.
func (m *Machine) DangerousPaths() *Coloring {
	c := &Coloring{m: m, Colored: make([]bool, len(m.Edges)), out: m.outgoing()}
	out := c.out
	for i := range m.Edges {
		if m.IsCrashEvent(EventID(i)) {
			c.Colored[i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, e := range m.Edges {
			if c.Colored[i] {
				continue
			}
			if c.stateDoomed(e.To, out) {
				c.Colored[i] = true
				changed = true
			}
		}
	}
	return c
}

// stateDoomed reports whether a commit taken while resident in state s lies
// on a dangerous path: every event out of s is colored (and there is at
// least one), or some colored event out of s is fixed non-deterministic.
func (c *Coloring) stateDoomed(s StateID, out [][]EventID) bool {
	edges := out[s]
	if len(edges) == 0 {
		return false
	}
	all := true
	for _, id := range edges {
		if !c.Colored[id] {
			all = false
		} else if c.m.Edges[id].ND == event.FixedND {
			return true
		}
	}
	return all
}

// Dangerous reports whether edge id is on a dangerous path.
func (c *Coloring) Dangerous(id EventID) bool { return c.Colored[id] }

// CommitUnsafeAt reports whether executing a commit while resident in state
// s could violate the Lose-work invariant. Per the Lose-work theorem a
// commit is forbidden anywhere on a dangerous path; a commit "at" state s is
// on a dangerous path exactly when s is doomed under the coloring.
func (c *Coloring) CommitUnsafeAt(s StateID) bool {
	if c.m.CrashStates[s] {
		return true
	}
	return c.stateDoomed(s, c.out)
}

// SafeCommitStates returns all states where a commit cannot violate
// Lose-work, sorted.
func (c *Coloring) SafeCommitStates() []StateID {
	out := c.out
	var states []StateID
	for s := 0; s < c.m.NumStates; s++ {
		sid := StateID(s)
		if c.m.CrashStates[sid] {
			continue
		}
		if !c.stateDoomed(sid, out) {
			states = append(states, sid)
		}
	}
	return states
}
