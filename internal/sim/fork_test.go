package sim

import (
	"fmt"
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
	if !w.Frozen() {
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
