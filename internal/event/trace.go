package event

import "fmt"

// Trace records the events of one run of a computation in the global order
// the simulator executed them. Within the slice, the events of each process
// appear with strictly increasing event indexes, and every Receive appears
// after its matching Send.
type Trace struct {
	NumProcs int
	Events   []Event

	next []int // next expected event index per process, len == NumProcs
}

// NewTrace returns an empty trace for n processes.
func NewTrace(n int) *Trace {
	return &Trace{NumProcs: n, next: make([]int, n)}
}

// Append validates and records e, assigning its per-process index if
// e.ID.I is negative. It returns the recorded event.
func (t *Trace) Append(e Event) (Event, error) {
	if e.ID.P < 0 || e.ID.P >= t.NumProcs {
		return Event{}, fmt.Errorf("event: process %d out of range [0,%d)", e.ID.P, t.NumProcs)
	}
	if e.ID.I < 0 {
		e.ID.I = t.next[e.ID.P]
	} else if e.ID.I != t.next[e.ID.P] {
		return Event{}, fmt.Errorf("event: %v out of order, expected index %d", e.ID, t.next[e.ID.P])
	}
	t.next[e.ID.P]++
	t.Events = append(t.Events, e)
	return e, nil
}

// MustAppend is Append for constructing traces in tests; it panics on error.
func (t *Trace) MustAppend(e Event) Event {
	out, err := t.Append(e)
	if err != nil {
		panic(err)
	}
	return out
}

// Fork returns an independent deep copy of the trace: appends to either
// copy never affect the other. Events are value types, so copying the
// slice suffices.
func (t *Trace) Fork() *Trace {
	nt := &Trace{
		NumProcs: t.NumProcs,
		Events:   append([]Event(nil), t.Events...),
		next:     append([]int(nil), t.next...),
	}
	return nt
}

// Clocks computes the vector clock of every event in the trace. The clock of
// event e counts e itself, so clocks[i][p] is the number of events of p in
// the causal past of t.Events[i], inclusive. Receives merge the clock of
// their matching send; unmatched receives merge nothing (their sender's
// history is unknown, e.g. input from outside the computation).
func (t *Trace) Clocks() []VC {
	clocks := make([]VC, len(t.Events))
	cur := make([]VC, t.NumProcs)
	for p := range cur {
		cur[p] = NewVC(t.NumProcs)
	}
	sendClock := make(map[int64]VC)
	for i, e := range t.Events {
		c := cur[e.ID.P]
		if e.Kind == Receive && e.Msg != 0 {
			if sc, ok := sendClock[e.Msg]; ok {
				c.Merge(sc)
			}
		}
		c[e.ID.P]++
		if e.Kind == Send && e.Msg != 0 {
			sendClock[e.Msg] = c.Clone()
		}
		clocks[i] = c.Clone()
	}
	return clocks
}

// HB is a precomputed happens-before oracle over one trace.
type HB struct {
	clocks []VC
	pos    map[ID]int
}

// NewHB computes the happens-before relation for t.
func NewHB(t *Trace) *HB {
	h := &HB{clocks: t.Clocks(), pos: make(map[ID]int, len(t.Events))}
	for i, e := range t.Events {
		h.pos[e.ID] = i
	}
	return h
}

// Clock returns the vector clock of event id (ok=false if id is not in the
// trace).
func (h *HB) Clock(id ID) (VC, bool) {
	i, ok := h.pos[id]
	if !ok {
		return nil, false
	}
	return h.clocks[i], true
}

// HappensBefore reports whether event a happens-before event b. Events not
// in the trace are related to nothing.
func (h *HB) HappensBefore(a, b ID) bool {
	if a == b {
		return false
	}
	ca, ok := h.Clock(a)
	if !ok {
		return false
	}
	cb, ok := h.Clock(b)
	if !ok {
		return false
	}
	// Clocks are inclusive of their own event, so a happens-before b iff
	// a's clock is component-wise ≤ b's: b's view then contains a's own
	// event, which can only arrive along a causal path.
	return ca.LE(cb)
}

// CausallyPrecedes is the paper's causality approximation: identical to
// HappensBefore, named separately to keep call sites honest about intent.
func (h *HB) CausallyPrecedes(a, b ID) bool { return h.HappensBefore(a, b) }
