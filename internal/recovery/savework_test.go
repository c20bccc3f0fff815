package recovery

import (
	"math/rand"
	"testing"
	"testing/quick"

	"failtrans/internal/event"
)

func ev(p int, kind event.Kind, nd event.NDClass) event.Event {
	return event.Event{ID: event.ID{P: p, I: -1}, Kind: kind, ND: nd}
}

// TestSaveWorkCoinFlip reproduces the paper's Figure 1: an uncommitted
// transient ND event followed by a visible event violates Save-work.
func TestSaveWorkCoinFlip(t *testing.T) {
	tr := event.NewTrace(1)
	tr.MustAppend(ev(0, event.Internal, event.TransientND)) // coin flip
	tr.MustAppend(ev(0, event.Visible, event.Deterministic))
	vs := CheckSaveWork(tr)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].TargetKind != event.Visible {
		t.Errorf("violation should be of Save-work-visible, got %v", vs[0])
	}
}

// TestSaveWorkCommitBetween: a commit between the ND event and the visible
// event satisfies the invariant.
func TestSaveWorkCommitBetween(t *testing.T) {
	tr := event.NewTrace(1)
	tr.MustAppend(ev(0, event.Internal, event.TransientND))
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	tr.MustAppend(ev(0, event.Visible, event.Deterministic))
	if vs := CheckSaveWork(tr); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
}

// TestSaveWorkCommitAtomicWithTarget: a commit covers its own process's
// earlier ND events even when the commit itself is the target.
func TestSaveWorkCommitAtomicWithTarget(t *testing.T) {
	tr := event.NewTrace(1)
	tr.MustAppend(ev(0, event.Internal, event.FixedND))
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	if vs := CheckSaveWork(tr); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
}

// TestSaveWorkLoggedNDNeedsNoCommit: logging renders an ND event
// deterministic; no commit is required.
func TestSaveWorkLoggedNDNeedsNoCommit(t *testing.T) {
	tr := event.NewTrace(1)
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Internal, ND: event.TransientND, Logged: true})
	tr.MustAppend(ev(0, event.Visible, event.Deterministic))
	if vs := CheckSaveWork(tr); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
}

// TestSaveWorkCommitAfterVisibleTooLate: committing after the visible event
// does not satisfy the invariant.
func TestSaveWorkCommitAfterVisibleTooLate(t *testing.T) {
	tr := event.NewTrace(1)
	tr.MustAppend(ev(0, event.Internal, event.TransientND))
	tr.MustAppend(ev(0, event.Visible, event.Deterministic))
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	vs := CheckSaveWork(tr)
	// The late commit creates a second violation: the ND event also
	// causally precedes the commit without coverage... no — the late
	// commit itself covers the ND event with respect to that commit
	// (i<j, c==target). Only the visible target is violated.
	if len(vs) != 1 || vs[0].TargetKind != event.Visible {
		t.Fatalf("violations = %v, want one visible violation", vs)
	}
}

// TestSaveWorkOrphanRule reproduces Figure 2: B's uncommitted ND event
// causally precedes A's commit through a message — a Save-work-orphan
// violation.
func TestSaveWorkOrphanRule(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(1, event.Internal, event.TransientND))
	tr.MustAppend(event.Event{ID: event.ID{P: 1, I: -1}, Kind: event.Send, Msg: 1, Peer: 0})
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Receive, Msg: 1, Peer: 1, ND: event.TransientND})
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	vs := CheckSaveWork(tr)
	// Two uncovered ND events precede A's commit: B's internal ND and
	// A's own ND receive... A's receive is covered by A's commit
	// (same process, i<j, c==target). So exactly one violation: B's ND.
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want one", vs)
	}
	if vs[0].ND.P != 1 || vs[0].TargetKind != event.Commit {
		t.Errorf("violation = %v, want B's ND against A's commit", vs[0])
	}
}

// TestSaveWorkSenderCommitBeforeSend: B committing between its ND event and
// the send covers the dependence (the CPVS discipline).
func TestSaveWorkSenderCommitBeforeSend(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(1, event.Internal, event.TransientND))
	tr.MustAppend(ev(1, event.Commit, event.Deterministic))
	tr.MustAppend(event.Event{ID: event.ID{P: 1, I: -1}, Kind: event.Send, Msg: 1, Peer: 0})
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Receive, Msg: 1, Peer: 1})
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	if vs := CheckSaveWork(tr); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
}

// TestSaveWorkConcurrentNDIgnored: ND events that do not causally precede
// any visible or commit event need not be committed.
func TestSaveWorkConcurrentNDIgnored(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(0, event.Visible, event.Deterministic))
	tr.MustAppend(ev(1, event.Internal, event.TransientND)) // after, concurrent
	if vs := CheckSaveWork(tr); len(vs) != 0 {
		t.Errorf("violations = %v, want none", vs)
	}
}

func TestFindOrphansFigure2(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(1, event.Internal, event.TransientND))
	tr.MustAppend(event.Event{ID: event.ID{P: 1, I: -1}, Kind: event.Send, Msg: 1, Peer: 0})
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Receive, Msg: 1, Peer: 1})
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	// B fails after executing both of its events; neither committed.
	orphans := FindOrphans(tr, 1, 2)
	if len(orphans) != 1 {
		t.Fatalf("orphans = %v, want A", orphans)
	}
	if orphans[0].Process != 0 || orphans[0].LostND.P != 1 {
		t.Errorf("orphan = %+v", orphans[0])
	}
}

func TestFindOrphansNoneWhenSenderCommitted(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(1, event.Internal, event.TransientND))
	tr.MustAppend(ev(1, event.Commit, event.Deterministic))
	tr.MustAppend(event.Event{ID: event.ID{P: 1, I: -1}, Kind: event.Send, Msg: 1, Peer: 0})
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Receive, Msg: 1, Peer: 1})
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	if orphans := FindOrphans(tr, 1, 3); len(orphans) != 0 {
		t.Errorf("orphans = %v, want none: B's ND event was committed", orphans)
	}
}

func TestFindOrphansFailureBeforeND(t *testing.T) {
	tr := event.NewTrace(2)
	tr.MustAppend(ev(1, event.Internal, event.TransientND))
	tr.MustAppend(event.Event{ID: event.ID{P: 1, I: -1}, Kind: event.Send, Msg: 1, Peer: 0})
	tr.MustAppend(event.Event{ID: event.ID{P: 0, I: -1}, Kind: event.Receive, Msg: 1, Peer: 1})
	tr.MustAppend(ev(0, event.Commit, event.Deterministic))
	// B "fails" before executing anything: nothing is lost.
	if orphans := FindOrphans(tr, 1, 0); len(orphans) != 0 {
		t.Errorf("orphans = %v, want none", orphans)
	}
}

// TestSaveWorkNoViolationsImpliesNoOrphans is the theory link: if a trace
// satisfies Save-work, then no stop failure at any point leaves an orphan.
func TestSaveWorkNoViolationsImpliesNoOrphans(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomProtocolTrace(r, true)
		if len(CheckSaveWork(tr)) != 0 {
			return true // only examine Save-work-clean traces
		}
		for p := 0; p < tr.NumProcs; p++ {
			n := 0
			for _, e := range tr.Events {
				if e.ID.P == p {
					n++
				}
			}
			for cut := 0; cut <= n; cut++ {
				if len(FindOrphans(tr, p, cut)) != 0 {
					t.Logf("seed %d: orphan despite Save-work holding (fail p%d at %d)", seed, p, cut)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomProtocolTrace generates a random multi-process trace; when
// disciplined is true each process commits before every send and visible
// event (the CPVS protocol), which should always uphold Save-work.
func randomProtocolTrace(r *rand.Rand, disciplined bool) *event.Trace {
	nproc := 2 + r.Intn(2)
	tr := event.NewTrace(nproc)
	var msg int64
	type inflight struct {
		msg  int64
		from int
	}
	var fly []inflight
	steps := 8 + r.Intn(12)
	for i := 0; i < steps; i++ {
		p := r.Intn(nproc)
		switch r.Intn(5) {
		case 0:
			tr.MustAppend(ev(p, event.Internal, event.TransientND))
		case 1:
			tr.MustAppend(ev(p, event.Internal, event.Deterministic))
		case 2:
			if disciplined {
				tr.MustAppend(ev(p, event.Commit, event.Deterministic))
			}
			msg++
			to := (p + 1) % nproc
			tr.MustAppend(event.Event{ID: event.ID{P: p, I: -1}, Kind: event.Send, Msg: msg, Peer: to})
			fly = append(fly, inflight{msg, p})
		case 3:
			if len(fly) > 0 {
				m := fly[0]
				fly = fly[1:]
				to := (m.from + 1) % nproc
				tr.MustAppend(event.Event{ID: event.ID{P: to, I: -1}, Kind: event.Receive, Msg: m.msg, Peer: m.from, ND: event.TransientND})
			}
		default:
			if disciplined {
				tr.MustAppend(ev(p, event.Commit, event.Deterministic))
			}
			tr.MustAppend(ev(p, event.Visible, event.Deterministic))
		}
	}
	return tr
}

// TestCPVSUpholdsSaveWorkVisible: the disciplined generator above must never
// violate the visible rule; orphan-rule violations can still occur because
// receives are ND and commits do not precede them... they cannot: each
// process commits before sends, so no uncommitted foreign ND crosses a
// message. The whole invariant must hold.
func TestCPVSUpholdsSaveWork(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomProtocolTrace(r, true)
		vs := CheckSaveWork(tr)
		if len(vs) != 0 {
			t.Logf("seed %d: CPVS-style trace violated Save-work: %v", seed, vs[0])
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
