package sim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"failtrans/internal/event"
)

// lineWriter emits "<tag> line <i>" through OutputBytes from one reused
// scratch buffer, and scribbles over the buffer as soon as the call
// returns: a retained output that aliased the caller's bytes would show it.
type lineWriter struct {
	counter
	tag string
	buf []byte
}

func (s *lineWriter) Fork() (Program, error) {
	return &lineWriter{counter: s.counter, tag: s.tag}, nil
}

func (s *lineWriter) Step(ctx *Ctx) Status {
	if s.Done >= s.N {
		return Done
	}
	s.buf = fmt.Appendf(s.buf[:0], "%s line %d", s.tag, s.Done)
	ctx.OutputBytes(s.buf)
	for i := range s.buf {
		s.buf[i] = '#'
	}
	s.Done++
	return Ready
}

// writtenLines is what lineWriters emit at positions from..to-1, tag(i)
// naming the writer of line i.
func writtenLines(from, to int, tag func(i int) string) []string {
	var out []string
	for i := from; i < to; i++ {
		out = append(out, fmt.Sprintf("%s line %d", tag(i), i))
	}
	return out
}

// TestOutputForksStayApart: a template emits through OutputBytes and
// freezes; two forks, stepped concurrently, emit different lines. Neither
// the template's strings nor either sibling's change, and each fork writes
// its own byte blocks (the lines span several of them, past the first
// block's doubling). Under -race it also shows the forks share no written
// byte.
func TestOutputForksStayApart(t *testing.T) {
	const split, n = 40, 120
	w := NewWorld(1, &lineWriter{counter: counter{N: n}, tag: "t"})
	runToStep(t, w, split)
	tmplWant := writtenLines(0, split, func(int) string { return "t" })
	if !outputsEqual(w.Outputs[0], tmplWant) {
		t.Fatalf("template outputs %q, want %q", w.Outputs[0], tmplWant)
	}
	if cap(w.byteBlock) <= byteBlockMin {
		t.Fatalf("template's byte block holds %d bytes: the test should outgrow the first block", cap(w.byteBlock))
	}
	forks := make([]*World, 2)
	for i, tag := range []string{"a", "b"} {
		f, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if f.byteBlock != nil {
			t.Fatal("a fork inherited its template's byte block")
		}
		f.Procs[0].Prog.(*lineWriter).tag = tag
		forks[i] = f
	}
	var wg sync.WaitGroup
	for _, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, tag := range []string{"a", "b"} {
		want := writtenLines(0, n, func(j int) string {
			if j < split {
				return "t"
			}
			return tag
		})
		if !outputsEqual(forks[i].Outputs[0], want) {
			t.Errorf("fork %s outputs %q, want %q", tag, forks[i].Outputs[0], want)
		}
	}
	if !outputsEqual(w.Outputs[0], tmplWant) {
		t.Errorf("template outputs changed under its forks: %q", w.Outputs[0])
	}
}

// scribbleRecovery stands in for a before-visible commit that reuses the
// program's scratch: its pre-visible hook overwrites buf.
type scribbleRecovery struct {
	noopRecovery
	buf *[]byte
}

func (r scribbleRecovery) BeforeEvent(p *Proc, kind event.Kind, nd event.NDClass, label string) {
	if kind == event.Visible {
		copy(*r.buf, bytes.Repeat([]byte{'X'}, len(*r.buf)))
	}
}

// TestOutputBytesCopiesBeforeTheHook: OutputBytes keeps the text the
// caller passed even when the pre-visible hook overwrites the caller's
// scratch, and when the caller overwrites it right after the call.
func TestOutputBytesCopiesBeforeTheHook(t *testing.T) {
	sw := &lineWriter{counter: counter{N: 5}, tag: "hooked"}
	w := NewWorld(1, sw)
	w.Recovery = scribbleRecovery{buf: &sw.buf}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := writtenLines(0, 5, func(int) string { return "hooked" })
	if !outputsEqual(w.Outputs[0], want) {
		t.Errorf("outputs %q, want %q", w.Outputs[0], want)
	}
}

// TestOutputBytesAllocatesOnlyBlocks: a warmed OutputBytes allocates no
// object per line; only the byte arena's blocks and the Outputs list grow,
// each geometrically.
func TestOutputBytesAllocatesOnlyBlocks(t *testing.T) {
	w := NewWorld(1, &counter{N: 1})
	ctx := w.Procs[0].Ctx()
	line := []byte("[3,7 12L +] the quick brown fox")
	if n := testing.AllocsPerRun(1000, func() { ctx.OutputBytes(line) }); n != 0 {
		t.Errorf("OutputBytes allocates %.0f times per line, want 0", n)
	}
	if got := w.Outputs[0][len(w.Outputs[0])-1]; got != string(line) {
		t.Errorf("last output %q, want %q", got, line)
	}
}
