package kernel

import (
	"reflect"
	"testing"
	"time"

	"failtrans/internal/fieldguard"
)

// TestKernelSameState: an untouched fork of a sealed kernel is in its
// template's state — also after it cloned a node or took a private copy of
// a file's unchanged bytes — and changing any one compared piece of node state makes
// SameState answer false.
func TestKernelSameState(t *testing.T) {
	r := newRig()
	r.run([]op{
		sys(0, "open", []byte("a.txt"), []byte{1}),
		sys(0, "write", I64(3), []byte("hello world")),
		sys(1, "open", []byte("b.txt"), []byte{1}),
		sys(1, "write", I64(3), []byte("node one")),
	})
	tmpl := r.fork().k.base // the sealed template
	cases := []struct {
		name   string
		script []op
		same   bool
	}{
		{"untouched", nil, true},
		{"node cloned", []op{{0, "!touch", nil}}, true},
		{"same bytes rewritten", []op{{0, "!rewrite", [][]byte{{0}}}}, true},
		{"file byte", []op{{0, "!rewrite", [][]byte{{1}}}}, false},
		{"fd offset", []op{sys(0, "lseek", I64(3), I64(2))}, false},
		{"syscall count", []op{sys(1, "getpid")}, false},
		{"open-file limit", []op{{1, "!expand", nil}}, false},
		{"fault window", []op{{0, "!inject", [][]byte{I64(int64(time.Millisecond))}}}, false},
		{"new file", []op{sys(1, "open", []byte("c.txt"), []byte{1})}, false},
		{"unlinked file", []op{sys(1, "unlink", []byte("b.txt"))}, false},
		{"new node", []op{{2, "!touch", nil}}, false},
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
		if got := f.k.SameState(tmpl); got != c.same {
			t.Errorf("%s: SameState = %v, want %v", c.name, got, c.same)
		}
	}
	if r.fork().k.SameState(struct{}{}) {
		t.Error("a kernel matched a non-kernel")
	}
}

// TestKernelSameStateCoversEveryField is the guard over Kernel.SameState:
// every field of Kernel and node is compared or is listed here as
// behaviour-neutral, with the reason.
func TestKernelSameStateCoversEveryField(t *testing.T) {
	const (
		sink    = "observability sink or callback: per-run harness wiring"
		scratch = "scratch: refilled before every use"
		cow     = "copy-on-write representation: the live view it yields is compared"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(Kernel{}), map[string]string{
		"nodes":     c,
		"base":      cow,
		"Clock":     "wiring to the owning world's clock",
		"OnCorrupt": sink,
		"OnPanic":   sink,
		"Metrics":   sink,
		"Tracer":    sink,
		"CowFiles":  "copy-on-write statistics",
		"CowBytes":  "copy-on-write statistics",
	})
	fieldguard.Check(t, reflect.TypeOf(node{}), map[string]string{
		"fs": c, "fds": c, "nextFD": c, "fdLimit": c, "fault": c, "edits": c, "Syscall": c,
		"base":    cow,
		"deleted": cow,
		"saveFDs": scratch,
		"saveBuf": scratch,
		"ret":     scratch,
		"retWord": scratch,
	})
	fieldguard.Check(t, reflect.TypeOf(kernelFault{}), map[string]string{
		"start": c, "window": c, "corrupted": c, "panicked": c,
		"traced": "tracer bookkeeping: pairs a fault window's Begin with its End",
	})
}
