package kernel

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// op is one step of a kernel script: a syscall by pid 0 or 1, or one of the
// harness actions "!clock" (set virtual time), "!inject" (open a fault window
// of the given length on pid) and "!expand" (raise pid's resource limits).
type op struct {
	pid  int
	name string
	args [][]byte
}

func sys(pid int, name string, args ...[]byte) op { return op{pid, name, args} }

// rig is a kernel with a settable clock; fork returns a rig on a
// copy-on-write fork of the kernel, at the same time.
type rig struct {
	k   *Kernel
	now *time.Duration
}

func newRig() rig {
	r := rig{k: New(), now: new(time.Duration)}
	r.k.Clock = func() time.Duration { return *r.now }
	return r
}

func (r rig) fork() rig {
	now := *r.now
	return rig{k: r.k.ForkOS(func() time.Duration { return now }).(*Kernel), now: &now}
}

// run applies the script and returns what every step returned, errors
// included, so twins can be compared call by call.
func (r rig) run(script []op) []string {
	var out []string
	for _, o := range script {
		switch o.name {
		case "!clock":
			*r.now = time.Duration(Int(o.args[0]))
		case "!inject":
			r.k.InjectFault(o.pid, time.Duration(Int(o.args[0])))
		case "!expand":
			out = append(out, fmt.Sprint("limit ", r.k.ExpandResources(o.pid)))
		default:
			ret, _, err := r.k.Call(o.pid, o.name, o.args)
			out = append(out, fmt.Sprintf("%s %q %v", o.name, ret, err))
		}
	}
	return out
}

// observe renders everything a kernel's two nodes hold that a later syscall,
// a checkpoint or a study could read.
func (r rig) observe() []string {
	var out []string
	for pid := 0; pid < 2; pid++ {
		for _, path := range r.k.Files(pid) {
			data, _ := r.k.ReadFile(pid, path)
			out = append(out, fmt.Sprintf("pid %d file %s = %q", pid, path, data))
		}
		out = append(out, fmt.Sprintf("pid %d state %x syscalls %d corrupted %v",
			pid, r.k.SaveProcState(pid), r.k.Syscalls(pid), r.k.FaultCorrupted(pid)))
	}
	return out
}

func repeat(n int, o op) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

// TestForkMatchesNeverForkedTwin is the kernel's fork-isolation test, one
// mutation family per case. Kernel A runs prefix then suffix and is never
// forked; kernel T runs the same prefix, is sealed, and its fork F runs the
// suffix. F must answer every call as A does and end holding what A holds; T
// must not change, and a sibling fork taken afterwards must see none of F's
// writes. Then a third generation — F sealed in turn, its fork G, one more
// script on A and G — must match again, with F flattened: no node reads
// through more than one base, however long the ancestry.
func TestForkMatchesNeverForkedTwin(t *testing.T) {
	// Every case starts from these files and descriptors: pid 0 holds a
	// (fd 3), b (fd 4) and the closed c; pid 1 holds x (fd 3).
	common := []op{
		sys(0, "open", []byte("a"), []byte{1}), sys(0, "write", I64(3), []byte("hello world")),
		sys(0, "open", []byte("b"), []byte{1}), sys(0, "write", I64(4), []byte("bbbb")),
		sys(0, "open", []byte("c"), []byte{1}), sys(0, "write", I64(5), []byte("cccc")), sys(0, "close", I64(5)),
		sys(1, "open", []byte("x"), []byte{1}), sys(1, "write", I64(3), []byte("node one")),
	}
	third := []op{
		sys(0, "open", []byte("a")), sys(0, "write", I64(3), []byte("!")), sys(0, "unlink", []byte("b")),
		sys(1, "lseek", I64(3), I64(0)), sys(1, "read", I64(3), I64(4)),
	}
	for _, tc := range []struct {
		name           string
		prefix, suffix []op
	}{
		{name: "write", suffix: []op{
			sys(0, "lseek", I64(3), I64(2)), sys(0, "write", I64(3), []byte("XY")),
			sys(0, "write", I64(4), []byte("appended past the end")),
			sys(0, "lseek", I64(3), I64(0)), sys(0, "read", I64(3), I64(64)),
		}},
		{name: "truncate", suffix: []op{
			sys(0, "truncate", []byte("a"), I64(3)), sys(0, "stat", []byte("a")),
			sys(0, "write", I64(3), []byte("tail")), sys(0, "truncate", []byte("nope"), I64(0)),
		}},
		{name: "unlink then recreate", suffix: []op{
			sys(0, "unlink", []byte("c")), sys(0, "stat", []byte("c")), sys(0, "open", []byte("c")),
			sys(0, "open", []byte("c"), []byte{1}), sys(0, "write", I64(5), []byte("new")), sys(0, "stat", []byte("c")),
			sys(0, "unlink", []byte("a")), sys(0, "read", I64(3), I64(4)),
		}},
		{name: "open past fdLimit",
			// 62 of the 64 slots are taken when T is sealed; the fork must
			// refuse the same open A refuses, and accept it once expanded.
			prefix: repeat(60, sys(0, "open", []byte("a"))),
			suffix: append(repeat(4, sys(0, "open", []byte("b"))),
				op{0, "!expand", nil}, sys(0, "open", []byte("b"))),
		},
		{name: "fault window open across the fork",
			prefix: []op{{0, "!inject", [][]byte{I64(int64(time.Millisecond))}}, sys(0, "stat", []byte("a"))},
			suffix: []op{
				sys(0, "lseek", I64(3), I64(0)), sys(0, "read", I64(3), I64(8)), sys(1, "stat", []byte("x")),
				{0, "!clock", [][]byte{I64(int64(time.Millisecond))}}, sys(0, "stat", []byte("a")), sys(1, "stat", []byte("x")),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, tmpl := newRig(), newRig()
			prefix := append(append([]op(nil), common...), tc.prefix...)
			a.run(prefix)
			tmpl.run(prefix)
			sealed := tmpl.observe()

			f := tmpl.fork()
			if got, want := f.run(tc.suffix), a.run(tc.suffix); !reflect.DeepEqual(got, want) {
				t.Errorf("fork answered the suffix differently:\n got %q\nwant %q", got, want)
			}
			if got, want := f.observe(), a.observe(); !reflect.DeepEqual(got, want) {
				t.Errorf("fork diverged from its never-forked twin:\n got %q\nwant %q", got, want)
			}
			if got := tmpl.observe(); !reflect.DeepEqual(got, sealed) {
				t.Errorf("sealed kernel changed under its fork:\n got %q\nwant %q", got, sealed)
			}
			if got := tmpl.fork().observe(); !reflect.DeepEqual(got, sealed) {
				t.Errorf("a sibling fork sees the first fork's writes:\n got %q\nwant %q", got, sealed)
			}

			g := f.fork()
			for pid := range f.k.nodes {
				n := &f.k.nodes[pid]
				if n.base != nil || n.deleted != nil {
					t.Errorf("sealed fork's node %d still reads through a base", pid)
				}
				if g.k.nodes[pid].base != n {
					t.Errorf("the third generation's node %d does not read through its template's", pid)
				}
			}
			if got, want := g.run(third), a.run(third); !reflect.DeepEqual(got, want) {
				t.Errorf("third generation answered differently:\n got %q\nwant %q", got, want)
			}
			if got, want := g.observe(), a.observe(); !reflect.DeepEqual(got, want) {
				t.Errorf("third generation diverged from the never-forked twin:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestForkFirstSaveAllocatesOnce: a fork's node starts without save
// scratch, and its first SaveProcState sizes the blob before filling it —
// one allocation more than a save that reuses it, however many fds are
// open (the table is already in descriptor order, so nothing is sorted).
func TestForkFirstSaveAllocatesOnce(t *testing.T) {
	r := newRig()
	for _, p := range []string{"a.dat", "some/longer/path/b.dat", "c", "d.log", "e.tmp"} {
		if _, _, err := r.k.Call(0, "open", [][]byte{[]byte(p), {1}}); err != nil {
			t.Fatal(err)
		}
	}
	want := string(r.k.SaveProcState(0))
	// The minimum over fresh forks: a stray runtime allocation only adds.
	fewest := uint64(math.MaxUint64)
	for range 3 {
		f := r.fork()
		var got []byte
		first := mallocs(func() { got = f.k.SaveProcState(0) })
		if string(got) != want {
			t.Fatal("the fork saves a different file table")
		}
		again := mallocs(func() { f.k.SaveProcState(0) })
		fewest = min(fewest, first-min(first, again))
	}
	if fewest != 1 {
		t.Errorf("a fork's first save allocates %d times more than its second, want 1", fewest)
	}
}

// TestForkCopiesInFixedAllocations pins what a kernel fork and its first
// steps allocate: ForkOS makes the kernel, one node slab and one descriptor
// array for all nodes, however many nodes and open files the template has;
// restoring a file table it saved refills that array in place; and a first
// write past the end of an inherited file copies the file once, with room
// for the write.
func TestForkCopiesInFixedAllocations(t *testing.T) {
	r := newRig()
	for pid := 0; pid < 4; pid++ {
		for _, p := range []string{"a", "b", "c"} {
			r.run([]op{sys(pid, "open", []byte(p), []byte{1}), sys(pid, "write", I64(3), []byte("0123456789"))})
		}
	}
	var f *Kernel
	if n := testing.AllocsPerRun(50, func() { f = r.k.ForkOS(r.k.Clock).(*Kernel) }); n != 3 {
		t.Errorf("forking a 4-node kernel with 12 open files allocates %.0f times, want 3", n)
	}
	blob := append([]byte(nil), f.SaveProcState(1)...)
	if n := testing.AllocsPerRun(50, func() { f.RestoreProcState(1, blob) }); n != 0 {
		t.Errorf("restoring a saved file table allocates %.0f times, want 0", n)
	}
	// A write inside the inherited file and one past its end each copy it
	// once: the privatized copy already has room for the longer write.
	writeAt := func(off int64, data string) uint64 {
		fewest := uint64(math.MaxUint64)
		for range 3 {
			f := r.fork()
			if _, _, err := f.k.Call(2, "lseek", [][]byte{I64(3), I64(off)}); err != nil {
				t.Fatal(err)
			}
			args := [][]byte{I64(3), []byte(data)}
			fewest = min(fewest, mallocs(func() {
				if _, _, err := f.k.Call(2, "write", args); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return fewest
	}
	if inside, past := writeAt(0, "xx"), writeAt(10, "past the end"); past != inside {
		t.Errorf("a fork's first write past the end of an inherited file allocates %d times, one inside it %d", past, inside)
	}
}
