package dc

import (
	"bytes"
	"slices"
	"testing"

	"failtrans/internal/event"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// idleProg is a program whose state never changes and whose MarshalState
// reuses one buffer, so a commit of it measures pure commit-engine cost.
type idleProg struct {
	buf   []byte
	state [64]byte
}

func (p *idleProg) Name() string            { return "idle" }
func (p *idleProg) Init(ctx *sim.Ctx) error { p.buf = make([]byte, 0, 256); return nil }
func (p *idleProg) Step(ctx *sim.Ctx) sim.Status {
	return sim.Done
}
func (p *idleProg) MarshalState() ([]byte, error) {
	return append(p.buf[:0], p.state[:]...), nil
}
func (p *idleProg) UnmarshalState(d []byte) error { copy(p.state[:], d); return nil }

// TestCommitSteadyStateZeroAllocs pins the tentpole acceptance property at
// the Discount Checking layer: a steady-state commit of an idle process —
// marshal, page diff, bookkeeping — performs zero heap allocations.
func TestCommitSteadyStateZeroAllocs(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	for k := 0; k < 3; k++ { // warm the image buffer and undo pool
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("steady-state commit allocates %.1f times per run, want 0", n)
	}
}

// TestCommitSteadyStateZeroAllocsWithMetrics re-pins the zero-allocation
// acceptance property with the observability layer's per-process metrics
// attached: instrumentation must be free on the commit hot path.
func TestCommitSteadyStateZeroAllocsWithMetrics(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	m, _ := w.EnableObs(false)
	d := New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	for k := 0; k < 3; k++ { // warm the image buffer and undo pool
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(200, func() {
		if err := d.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("instrumented steady-state commit allocates %.1f times per run, want 0", n)
	}
	pm := &m.Procs[0]
	if lat := m.Hists(0).CommitLatency.Count; pm.Commits == 0 || lat != pm.Commits {
		t.Errorf("commit metrics did not accumulate: commits=%d latency count=%d", pm.Commits, lat)
	}
	if m.Vista[0].Commits == 0 {
		t.Error("vista metrics slot was not wired to the segment")
	}
}

// TestSendWithoutDependenciesAllocFree: a send by a process with no
// uncommitted non-deterministic event of its own or of anyone it received
// from carries no dependency snapshot, so dc's send bookkeeping allocates
// nothing; once the process has uncommitted ND, the send records it.
func TestSendWithoutDependenciesAllocFree(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{}, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	send := event.Event{Kind: event.Send, Msg: 1, Peer: 1}
	if n := testing.AllocsPerRun(100, func() { d.AfterEvent(p, send) }); n != 0 {
		t.Errorf("dependency-free send allocates %.1f times in dc, want 0", n)
	}
	if len(d.msgDeps) != 0 {
		t.Fatalf("dependency-free send stored a snapshot: %v", d.msgDeps)
	}
	d.procs[p.Index].ndSince = true
	send.Msg = 2
	d.AfterEvent(p, send)
	want := depSnap{{proc: p.Index, epoch: d.procs[p.Index].epoch}}
	if snap := d.msgDeps[2]; !slices.Equal(snap, want) || cap(snap) != len(snap) {
		t.Errorf("send after uncommitted ND carries %v (cap %d), want %v capacity-clamped", snap, cap(snap), want)
	}
}

// Fork implements sim.Forker so an idle world can be frozen and forked.
func (p *idleProg) Fork() (sim.Program, error) {
	return &idleProg{buf: make([]byte, 0, 256), state: p.state}, nil
}

// TestForkImageBufferSizedOnce: a copy-on-write fork starts without an image
// buffer; its first commit (or rollback) allocates one from the segment's
// extent with room to grow into, and every later cycle reuses it.
func TestForkImageBufferSizedOnce(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	w.Freeze()
	for _, first := range []string{"commit", "rollback"} {
		fw, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fd, p := fw.Recovery.(*DC), fw.Procs[0]
		if fd.procs[0].img != nil {
			t.Fatalf("%s: fork already holds an image buffer", first)
		}
		if first == "commit" {
			err = fd.Checkpoint(p)
		} else {
			err = fd.Rollback(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		size, grown := fd.seg(0).Size(), cap(fd.procs[0].img)
		if size == 0 || grown <= size {
			t.Fatalf("%s: image buffer cap %d for a %d-byte segment, want headroom", first, grown, size)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := fd.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
			if err := fd.Rollback(p); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warmed fork commit+rollback allocates %.1f times per run, want 0", first, n)
		}
		if cap(fd.procs[0].img) != grown {
			t.Errorf("%s: image buffer reallocated (%d -> %d)", first, grown, cap(fd.procs[0].img))
		}
	}
}

// TestObsDeterministicAcrossRuns pins the acceptance property of the
// observability layer itself: the same seed produces a byte-identical
// metrics snapshot and trace JSON file, including across a crash and a
// log-constrained re-execution.
func TestObsDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]byte, []byte) {
		w := sim.NewWorld(29, &requester{Rounds: 6}, &responder{Max: 6})
		m, tr := w.EnableObs(true)
		d := New(w, protocol.CPV2PC, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, 9)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if d.Stats.Recoveries == 0 {
			t.Fatal("no recovery happened; determinism test is vacuous")
		}
		var snap, buf bytes.Buffer
		if err := m.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return snap.Bytes(), buf.Bytes()
	}
	snapA, jsonA := run()
	snapB, jsonB := run()
	if !bytes.Equal(snapA, snapB) {
		t.Errorf("same seed produced different metrics snapshots:\n%s\n---\n%s", snapA, snapB)
	}
	if !bytes.Equal(jsonA, jsonB) {
		t.Error("same seed produced different trace JSON")
	}
	if len(jsonA) == 0 || tracksIn(jsonA) < 2 {
		t.Errorf("trace JSON looks empty or untracked (%d bytes)", len(jsonA))
	}
}

// tracksIn counts thread_name metadata records in a trace JSON blob.
func tracksIn(data []byte) int {
	return bytes.Count(data, []byte(`"thread_name"`))
}

// TestForkRecoveryFixedAllocs pins what forking a frozen one-process DC
// allocates: the DC, its per-process records (commit counts included), and
// the segment's copy-on-write view, which shares the template's register
// file. A per-process field kept outside proc would add an allocation per
// fork.
func TestForkRecoveryFixedAllocs(t *testing.T) {
	w := sim.NewWorld(1, &idleProg{})
	w.RecordTrace = false
	d := New(w, protocol.CPVS, stablestore.Rio)
	if err := d.Attach(); err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	const want = 3
	if n := testing.AllocsPerRun(100, func() { d.ForkRecovery(w) }); n != want {
		t.Errorf("ForkRecovery of a frozen one-process DC allocates %.0f times, want %d", n, want)
	}
}
