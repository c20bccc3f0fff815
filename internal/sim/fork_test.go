package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"
)

// rngCounter emits outputs derived from the process rng — the one piece of
// Proc state a fork cannot copy directly (rand.Rand hides its state) and
// must instead reseed and fast-forward.
type rngCounter struct {
	counter
}

func (r *rngCounter) Fork() (Program, error) {
	nr := &rngCounter{counter: r.counter}
	return nr, nil
}

func (r *rngCounter) Step(ctx *Ctx) Status {
	if r.Done >= r.N {
		return Done
	}
	ctx.Compute(time.Millisecond)
	ctx.Output(fmt.Sprintf("tick %d rand %d", r.Done, ctx.Rand()%1000))
	r.Done++
	return Ready
}

// runToStep inits the world, then steps until its step count reaches n or
// it finishes. (Forking an uninitialized world is not meaningful: the
// fork's Run would re-run Init mid-stream.)
func runToStep(t *testing.T, w *World, n int) {
	t.Helper()
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	for w.StepCount() < n {
		more, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
	}
}

// finish runs the world to completion.
func finish(t *testing.T, w *World) {
	t.Helper()
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func outputsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestForkContinuationIdentical is the fork engine's core promise: a fork
// of a world sealed mid-run, resumed, produces byte-for-byte the outputs of
// a never-forked twin's uninterrupted run, including rng draws past the fork
// point.
func TestForkContinuationIdentical(t *testing.T) {
	ref := NewWorld(42, &rngCounter{counter{N: 20}})
	finish(t, ref)
	want := ref.Outputs[0]

	w := NewWorld(42, &rngCounter{counter{N: 20}})
	runToStep(t, w, 10)
	fw, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	finish(t, fw)
	if !outputsEqual(fw.Outputs[0], want) {
		t.Errorf("forked continuation diverged:\n got %v\nwant %v", fw.Outputs[0], want)
	}
	if fw.Clock != ref.Clock {
		t.Errorf("forked clock = %v, want %v", fw.Clock, ref.Clock)
	}
	if fw.StepCount() != ref.StepCount() {
		t.Errorf("forked steps = %d, want %d", fw.StepCount(), ref.StepCount())
	}
}

// TestForkIsolation: Fork seals the world — it refuses to step again — and
// running one fork never changes the sealed world or a sibling fork: every
// fork of it, however many others ran first, finishes as a never-forked twin
// does.
func TestForkIsolation(t *testing.T) {
	ref := NewWorld(7, &rngCounter{counter{N: 16}})
	finish(t, ref)
	want := ref.Outputs[0]

	w := NewWorld(7, &rngCounter{counter{N: 16}})
	runToStep(t, w, 8)
	sealed := append([]string(nil), w.Outputs[0]...)
	f1, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !w.frozen {
		t.Fatal("Fork left the world unsealed")
	}
	if _, err := w.Step(); err == nil {
		t.Fatal("a sealed world stepped")
	}
	// Run the first fork to completion BEFORE forking again: if forks
	// shared mutable state with the template, the second fork would see it.
	finish(t, f1)
	f2, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	finish(t, f2)
	for name, got := range map[string][]string{"fork1": f1.Outputs[0], "fork2": f2.Outputs[0]} {
		if !outputsEqual(got, want) {
			t.Errorf("%s diverged:\n got %v\nwant %v", name, got, want)
		}
	}
	if !outputsEqual(w.Outputs[0], sealed) || w.StepCount() != 8 {
		t.Errorf("sealed world changed under its forks: step %d, outputs %v", w.StepCount(), w.Outputs[0])
	}
}

// TestForkUnforkableProgram: a program without a Fork method is a clear
// error, not a shallow copy.
func TestForkUnforkableProgram(t *testing.T) {
	w := NewWorld(1, &counter{N: 3})
	if _, err := w.Fork(); err == nil {
		t.Error("forking a non-Forker program must error")
	}
}

// TestForkOutputsCopyOnWrite: forks share the committed output prefix with
// the sealed world, but appends by one fork must not bleed into a sibling.
func TestForkOutputsCopyOnWrite(t *testing.T) {
	w := NewWorld(3, &rngCounter{counter{N: 12}})
	runToStep(t, w, 6)
	prefix := append([]string(nil), w.Outputs[0]...)
	f1, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	finish(t, f1) // one fork appends first...
	finish(t, f2)
	if !outputsEqual(f2.Outputs[0][:len(prefix)], prefix) || !outputsEqual(w.Outputs[0], prefix) {
		t.Errorf("committed prefix changed: fork %v, sealed world %v", f2.Outputs[0][:len(prefix)], w.Outputs[0])
	}
	if !outputsEqual(f2.Outputs[0], f1.Outputs[0]) {
		t.Errorf("sibling forks finished differently:\n got %v\nwant %v",
			f2.Outputs[0], f1.Outputs[0])
	}
	// The emitter history behind GlobalOutputs is shared the same way.
	global := func(w *World) []string {
		out := make([]string, len(w.Outputs[0]))
		for i, s := range w.Outputs[0] {
			out[i] = "p0:" + s
		}
		return out
	}
	for name, x := range map[string]*World{"sealed world": w, "first fork": f1, "second fork": f2} {
		if got, want := x.GlobalOutputs(), global(x); !outputsEqual(got, want) {
			t.Errorf("%s: GlobalOutputs = %v, want %v", name, got, want)
		}
	}
}

// forkableNoop is a recovery layer that does nothing and forks: enough for
// Recv to filter duplicates in a fork.
type forkableNoop struct{ noopRecovery }

func (forkableNoop) ForkRecovery(*World) Recovery { return forkableNoop{} }

// TestForkRecvMarksIsolated: a fork's receive marks are its own. Its
// receives (a mark bumped in place, a new sender's mark inserted) and its
// RestoreCheckpointImage calls leave the template's marks and checkpoint
// image bytes as they were, and under a recovery layer the fork still drops
// a rolled-back sender's re-sent duplicate.
func TestForkRecvMarksIsolated(t *testing.T) {
	w := NewWorld(9, &rngCounter{}, &rngCounter{}, &rngCounter{}, &rngCounter{})
	w.RecordTrace = false
	w.Recovery = forkableNoop{}
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	send := func(w *World, from int, payload string) {
		t.Helper()
		if err := w.Procs[from].Ctx().Send(1, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		w.Clock += time.Second // delivered
	}
	deliver := func(w *World, from int, payload string) {
		t.Helper()
		send(w, from, payload)
		if m, ok := w.Procs[1].Ctx().Recv(); !ok || string(m.Payload) != payload {
			t.Fatalf("recv = %q, %v; want %q", m.Payload, ok, payload)
		}
	}
	deliver(w, 0, "a")
	deliver(w, 2, "b")
	tmpl := w.Procs[1]
	wantMarks := slices.Clone(tmpl.RecvHW)
	wantImg, err := tmpl.CheckpointImage(false)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		if !slices.Equal(tmpl.RecvHW, wantMarks) {
			t.Errorf("after %s the template's marks are %v, were %v", after, tmpl.RecvHW, wantMarks)
		}
		if img, err := tmpl.CheckpointImage(false); err != nil || !bytes.Equal(img, wantImg) {
			t.Errorf("after %s the template's checkpoint image changed (err %v)", after, err)
		}
	}

	f, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	deliver(f, 0, "c") // bumps sender 0's mark in place
	deliver(f, 3, "d") // inserts a mark for sender 3
	deliver(f, 2, "e")
	unchanged("a fork's receives")
	want := []RecvMark{{From: 0, Idx: 2}, {From: 2, Idx: 2}, {From: 3, Idx: 1}}
	if got := f.Procs[1].RecvHW; !slices.Equal(got, want) {
		t.Fatalf("fork's marks = %v, want %v", got, want)
	}

	img, err := f.Procs[1].CheckpointImage(false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for _, restore := range [][]byte{img, wantImg, img} {
		if err := g.Procs[1].RestoreCheckpointImage(restore); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("a fork's restores")
	if got := g.Procs[1].RecvHW; !slices.Equal(got, want) {
		t.Fatalf("restored fork's marks = %v, want %v", got, want)
	}

	f.Procs[0].SendSeq-- // the sender rolls back past "c" and re-sends it
	send(f, 0, "c")
	if m, ok := f.Procs[1].Ctx().Recv(); ok {
		t.Fatalf("the fork delivered the duplicate %q (send index %d)", m.Payload, m.SendIdx)
	}
	deliver(f, 0, "f")
	unchanged("a fork's duplicate filter")
}
