package kernel

import (
	"reflect"
	"testing"
	"time"

	"failtrans/internal/fieldguard"
	"failtrans/internal/sim"
)

// TestKernelSameState: an untouched fork of a sealed kernel is in its
// template's state — also after it took a private copy of a file's unchanged
// bytes, or read a pid neither has served — a fork that served more syscalls
// matches it as a layer offset while no fault window is open, and changing
// any one exactly compared piece of node state makes SameState answer false.
func TestKernelSameState(t *testing.T) {
	sealed := func() rig {
		r := newRig()
		r.run([]op{
			sys(0, "open", []byte("a.txt"), []byte{1}),
			sys(0, "write", I64(3), []byte("hello world")),
			sys(1, "open", []byte("b.txt"), []byte{1}),
			sys(1, "write", I64(3), []byte("node one")),
		})
		r.k.Freeze()
		return r
	}
	r := sealed()
	tmpl := r.k
	const (
		exact = iota
		shifted
		differs
	)
	cases := []struct {
		name   string
		script []op
		want   int
	}{
		{"untouched", nil, exact},
		{"same bytes rewritten", []op{{0, "!rewrite", [][]byte{{0}}}}, exact},
		{"syscall count", []op{sys(1, "getpid")}, shifted},
		{"file byte", []op{{0, "!rewrite", [][]byte{{1}}}}, differs},
		{"fd offset", []op{sys(0, "lseek", I64(3), I64(2))}, differs},
		{"open-file limit", []op{{1, "!expand", nil}}, differs},
		{"fault window", []op{{0, "!inject", [][]byte{I64(int64(time.Millisecond))}}}, differs},
		{"new file", []op{sys(1, "open", []byte("c.txt"), []byte{1})}, differs},
		{"unlinked file", []op{sys(1, "unlink", []byte("b.txt"))}, differs},
		{"new node", []op{{2, "!touch", nil}}, differs},
	}
	for _, c := range cases {
		f := r.fork()
		for _, o := range c.script {
			switch o.name {
			case "!touch":
				f.k.node(o.pid)
			case "!rewrite": // a private copy of a.txt, its first byte XORed with the argument
				d, _ := f.k.ReadFile(o.pid, "a.txt")
				d[0] ^= o.args[0][0]
				f.k.WriteFile(o.pid, "a.txt", d)
			default:
				f.run([]op{o})
			}
		}
		var off sim.Offsets
		got := differs
		if f.k.SameState(tmpl, &off) {
			got = exact
			if off.Layer {
				got = shifted
			}
		}
		if got != c.want {
			t.Errorf("%s: SameState classed the fork %d, want %d (0 exact, 1 shifted, 2 differs)", c.name, got, c.want)
		}
	}
	if r.fork().k.SameState(struct{}{}, &sim.Offsets{}) {
		t.Error("a kernel matched a non-kernel")
	}
	// Only node() creates a node: reading pid 2, which neither kernel has
	// served, leaves the fork in its template's state and the template as it
	// was sealed.
	for name, read := range map[string]func(k *Kernel){
		"FaultCorrupted": func(k *Kernel) { k.FaultCorrupted(2) },
		"ReadFile":       func(k *Kernel) { k.ReadFile(2, "a.txt") },
		"Faulted":        func(k *Kernel) { k.Faulted(2) },
	} {
		r := sealed()
		f := r.fork()
		read(f.k)
		var off sim.Offsets
		if !f.k.SameState(r.k, &off) || !off.Zero() {
			t.Errorf("%s of an unserved pid moved the fork off its template", name)
		}
		if read(r.k); len(r.k.nodes) != 2 || r.k.served(2) != nil {
			t.Errorf("%s of an unserved pid gave the sealed template %d node slots, want 2", name, len(r.k.nodes))
		}
	}
}

// TestKernelSameStateCoversEveryField is the guard over Kernel.SameState:
// every field of Kernel and node is compared exactly, compared as a position
// offset, or listed here as behaviour-neutral, with the reason.
func TestKernelSameStateCoversEveryField(t *testing.T) {
	const (
		sink    = "observability sink or callback: per-run harness wiring"
		scratch = "scratch: refilled before every use"
		cow     = "copy-on-write representation: the live view it yields is compared"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(Kernel{}), map[string]string{
		"nodes":     c,
		"Clock":     "wiring to the owning world's clock",
		"OnCorrupt": sink,
		"Metrics":   sink,
		"Tracer":    sink,
		"CowFiles":  "copy-on-write statistics",
		"CowBytes":  "copy-on-write statistics",
	})
	const offset = "offset: a counter that only advances and that only an open fault window reads; exact while one is open"
	fieldguard.Check(t, reflect.TypeOf(node{}), map[string]string{
		"served": c, "fs": c, "fds": c, "nextFD": c, "fdLimit": c, "fault": c,
		"edits":   offset,
		"Syscall": offset,
		"base":    cow,
		"deleted": cow,
		"saveBuf": scratch,
		"ret":     scratch,
		"retWord": scratch,
	})
	fieldguard.Check(t, reflect.TypeOf(kernelFault{}), map[string]string{
		"window": c, "corrupted": c, "panicked": c,
		"start":  "a clock position: compared shifted by the clock offset",
		"traced": "tracer bookkeeping: pairs a fault window's Begin with its End",
	})
}
