package event

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Internal: "internal",
		Visible:  "visible",
		Send:     "send",
		Receive:  "receive",
		Commit:   "commit",
		Crash:    "crash",
		Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNDClassString(t *testing.T) {
	cases := map[NDClass]string{
		Deterministic: "det",
		TransientND:   "transient-nd",
		FixedND:       "fixed-nd",
		NDClass(7):    "NDClass(7)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("NDClass(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestIDString(t *testing.T) {
	id := ID{P: 2, I: 5}
	if got := id.String(); got != "e_2^5" {
		t.Errorf("ID.String() = %q, want e_2^5", got)
	}
}

func TestEffectivelyND(t *testing.T) {
	cases := []struct {
		e    Event
		want bool
	}{
		{Event{ND: Deterministic}, false},
		{Event{ND: TransientND}, true},
		{Event{ND: FixedND}, true},
		{Event{ND: TransientND, Logged: true}, false},
		{Event{ND: FixedND, Logged: true}, false},
		{Event{ND: Deterministic, Logged: true}, false},
	}
	for _, c := range cases {
		if got := c.e.EffectivelyND(); got != c.want {
			t.Errorf("EffectivelyND(%+v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{ID: ID{P: 0, I: 3}, Kind: Receive, ND: TransientND, Logged: true, Msg: 42, Peer: 1, Label: "recv"}
	got := e.String()
	want := "e_0^3 receive transient-nd logged msg=42 peer=1 (recv)"
	if got != want {
		t.Errorf("Event.String() = %q, want %q", got, want)
	}
}

func TestTraceAppendAssignsIndexes(t *testing.T) {
	tr := NewTrace(2)
	e1 := tr.MustAppend(Event{ID: ID{P: 0, I: -1}})
	e2 := tr.MustAppend(Event{ID: ID{P: 0, I: -1}})
	e3 := tr.MustAppend(Event{ID: ID{P: 1, I: -1}})
	if e1.ID.I != 0 || e2.ID.I != 1 || e3.ID.I != 0 {
		t.Errorf("assigned indexes = %d,%d,%d, want 0,1,0", e1.ID.I, e2.ID.I, e3.ID.I)
	}
	if len(tr.Events) != 3 {
		t.Errorf("%d events, want 3", len(tr.Events))
	}
}

func TestTraceAppendRejectsBadProcess(t *testing.T) {
	tr := NewTrace(1)
	if _, err := tr.Append(Event{ID: ID{P: 1, I: -1}}); err == nil {
		t.Error("Append with out-of-range process succeeded, want error")
	}
	if _, err := tr.Append(Event{ID: ID{P: -1, I: -1}}); err == nil {
		t.Error("Append with negative process succeeded, want error")
	}
}

func TestTraceAppendRejectsOutOfOrder(t *testing.T) {
	tr := NewTrace(1)
	tr.MustAppend(Event{ID: ID{P: 0, I: -1}})
	if _, err := tr.Append(Event{ID: ID{P: 0, I: 5}}); err == nil {
		t.Error("Append with skipped index succeeded, want error")
	}
}

// buildMessageTrace builds the paper's Figure 2 computation: B executes an
// ND event, sends to A, A commits. A is then an orphan of B's lost ND event.
func buildMessageTrace() *Trace {
	tr := NewTrace(2)
	tr.MustAppend(Event{ID: ID{P: 1, I: -1}, Kind: Internal, ND: TransientND, Label: "ND"})
	tr.MustAppend(Event{ID: ID{P: 1, I: -1}, Kind: Send, Msg: 1, Peer: 0})
	tr.MustAppend(Event{ID: ID{P: 0, I: -1}, Kind: Receive, Msg: 1, Peer: 1})
	tr.MustAppend(Event{ID: ID{P: 0, I: -1}, Kind: Commit})
	return tr
}

func TestHappensBeforeProgramOrder(t *testing.T) {
	tr := buildMessageTrace()
	hb := NewHB(tr)
	if !hb.HappensBefore(ID{P: 1, I: 0}, ID{P: 1, I: 1}) {
		t.Error("program order: e_1^0 should happen-before e_1^1")
	}
	if hb.HappensBefore(ID{P: 1, I: 1}, ID{P: 1, I: 0}) {
		t.Error("program order must not be symmetric")
	}
	if hb.HappensBefore(ID{P: 0, I: 0}, ID{P: 0, I: 0}) {
		t.Error("happens-before must be irreflexive")
	}
}

func TestHappensBeforeAcrossMessage(t *testing.T) {
	tr := buildMessageTrace()
	hb := NewHB(tr)
	// B's ND event causally precedes A's commit through the message.
	if !hb.CausallyPrecedes(ID{P: 1, I: 0}, ID{P: 0, I: 1}) {
		t.Error("B's ND event should causally precede A's commit")
	}
	if !hb.HappensBefore(ID{P: 1, I: 1}, ID{P: 0, I: 0}) {
		t.Error("send should happen-before matching receive")
	}
	if hb.HappensBefore(ID{P: 0, I: 1}, ID{P: 1, I: 0}) {
		t.Error("A's commit must not precede B's earlier event")
	}
}

func TestHappensBeforeConcurrent(t *testing.T) {
	tr := NewTrace(2)
	tr.MustAppend(Event{ID: ID{P: 0, I: -1}})
	tr.MustAppend(Event{ID: ID{P: 1, I: -1}})
	hb := NewHB(tr)
	a, b := ID{P: 0, I: 0}, ID{P: 1, I: 0}
	if hb.HappensBefore(a, b) || hb.HappensBefore(b, a) {
		t.Error("events with no message path must be concurrent")
	}
	ca, _ := hb.Clock(a)
	cb, _ := hb.Clock(b)
	if ca.LE(cb) || cb.LE(ca) {
		t.Error("clocks of independent events should be incomparable")
	}
}

func TestHappensBeforeUnknownEvents(t *testing.T) {
	tr := buildMessageTrace()
	hb := NewHB(tr)
	if hb.HappensBefore(ID{P: 0, I: 99}, ID{P: 0, I: 0}) {
		t.Error("unknown event must relate to nothing")
	}
	if _, ok := hb.Clock(ID{P: 5, I: 0}); ok {
		t.Error("Clock of unknown event should report !ok")
	}
}

func TestUnmatchedReceiveMergesNothing(t *testing.T) {
	tr := NewTrace(2)
	tr.MustAppend(Event{ID: ID{P: 0, I: -1}})
	// Receive with a message id that was never sent inside the trace.
	tr.MustAppend(Event{ID: ID{P: 1, I: -1}, Kind: Receive, Msg: 77})
	hb := NewHB(tr)
	if hb.HappensBefore(ID{P: 0, I: 0}, ID{P: 1, I: 0}) {
		t.Error("unmatched receive must not inherit other processes' history")
	}
}

// TestCausalPast: in Figure 2, the events that happen-before A's commit are
// exactly B's ND event, B's send and A's receive.
func TestCausalPast(t *testing.T) {
	tr := buildMessageTrace()
	hb := NewHB(tr)
	commit := ID{P: 0, I: 1}
	want := map[ID]bool{{P: 1, I: 0}: true, {P: 1, I: 1}: true, {P: 0, I: 0}: true}
	for _, e := range tr.Events {
		if got := hb.HappensBefore(e.ID, commit); got != want[e.ID] {
			t.Errorf("HappensBefore(%v, commit) = %v, want %v", e.ID, got, want[e.ID])
		}
	}
}

// TestCausalPastUnknown: an event outside the trace has an empty causal
// past.
func TestCausalPastUnknown(t *testing.T) {
	tr := buildMessageTrace()
	hb := NewHB(tr)
	for _, e := range tr.Events {
		if hb.HappensBefore(e.ID, ID{P: 9, I: 9}) {
			t.Errorf("%v happens-before an event outside the trace", e.ID)
		}
	}
}
