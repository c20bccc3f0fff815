// Package kernel is the simulated operating system under the applications:
// a per-node flat filesystem, per-process open-file tables, and a syscall
// surface whose calls are classified by their non-determinism the way the
// paper's Discount Checking classifies FreeBSD's (gettimeofday and select
// are transient-ND; open is fixed-ND, it depends on kernel resource state;
// regular-file reads and writes are deterministic in the simulator).
//
// The tables are slices, not maps: the nodes are a slab indexed by pid (the
// simulator's dense process indices), and each node's open files are a
// slice kept sorted by descriptor. A copy-on-write fork therefore copies a
// kernel in a fixed number of allocations — the kernel, one node slab and
// one descriptor array its nodes share — whatever the process count.
//
// The kernel is also the fault-injection target for the paper's Table 2
// study: an injected kernel fault opens a corruption window during which
// syscall results returned to the application are silently corrupted
// (a propagation failure); when the window closes the kernel panics, which
// the application observes as ErrNodeCrashed on its next syscall (a stop
// failure). A fault whose window sees no syscalls is a pure stop failure.
package kernel

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"failtrans/internal/event"
	"failtrans/internal/obs"
)

// ErrNodeCrashed is returned by every syscall after the node's kernel has
// panicked and before it reboots.
var ErrNodeCrashed = errors.New("kernel: node crashed")

// MaxOpenFiles bounds each process's file table (the paper's example of
// fixed non-determinism in open).
const MaxOpenFiles = 64

// fdEntry is one open file: its descriptor, path and offset.
type fdEntry struct {
	FD     int
	Path   string
	Offset int64
}

type kernelFault struct {
	start  time.Duration
	window time.Duration
	// corrupted reports whether any syscall result was corrupted before
	// the panic.
	corrupted bool
	// panicked is set once the window closes.
	panicked bool
	// traced marks a window with an open tracer Begin awaiting its End.
	traced bool
}

type node struct {
	// served marks a pid the kernel has served. Only node() sets it; the
	// slab's other slots are pids the kernel never served, which SameState
	// tells apart from served ones and the readers answer for without
	// creating a node.
	served bool
	// fs's byte-slice values may alias a frozen base node's contents
	// (file() hands them out uncopied); setFile requires owned data and
	// ownFile privatizes a base file before mutation, so every insert
	// goes through one of the two.
	//failtrans:cowshared setFile,ownFile
	fs map[string][]byte
	// fds is the open-file table, sorted by descriptor, without duplicates.
	// open hands out nextFD, which only increases, so it appends.
	fds    []fdEntry
	nextFD int
	// fdLimit is the node's open-file limit; ExpandResources raises it,
	// turning the paper's fixed non-determinism of open into transient
	// non-determinism for the re-execution (§2.6).
	fdLimit int
	fault   *kernelFault
	edits   int64 // corruption counter for deterministic bit choice
	Syscall int64 // total syscalls served

	// base, when non-nil, is the frozen template node this node was COW-
	// forked from: file contents read through it until the first mutation
	// privatizes them into fs, and deleted masks paths unlinked locally.
	// The base belongs to a frozen kernel, so it can never change and has no
	// base of its own (Freeze flattens).
	base    *node
	deleted map[string]bool

	// saveBuf is SaveProcState's reusable scratch: the commit path
	// serializes the file table once per checkpoint and appends the blob
	// into the image immediately. Never cloned into forks (each fork's
	// nodes start with zero scratch).
	saveBuf []byte

	// ret and retWord are dispatch's scratch for a call that returns one
	// integer, so the common calls build no result slices. The result is
	// valid until the node's next call; whoever keeps it longer copies
	// (corrupt before flipping a bit, the ND log before recording).
	ret     [1][]byte
	retWord [8]byte
}

// i64Result returns v as a one-part syscall result in the node's scratch.
func (n *node) i64Result(v int64) [][]byte {
	binary.LittleEndian.PutUint64(n.retWord[:], uint64(v))
	n.ret[0] = n.retWord[:]
	return n.ret[:]
}

// file resolves a path overlay-first: the node's own fs, then (unless
// locally deleted) the frozen base. The returned slice must not be mutated
// unless it came from the node's own fs.
func (n *node) file(path string) ([]byte, bool) {
	if d, ok := n.fs[path]; ok {
		return d, true
	}
	if n.base == nil || n.deleted[path] {
		return nil, false
	}
	d, ok := n.base.fs[path]
	return d, ok
}

// setFile stores data (which the node must own) under path, clearing any
// local deletion mask.
func (n *node) setFile(path string, data []byte) {
	if n.fs == nil {
		n.fs = make(map[string][]byte) // COW forks defer the overlay map
	}
	n.fs[path] = data
	if n.deleted != nil {
		delete(n.deleted, path)
	}
}

// ownFile returns a privately-owned copy of path's contents, privatizing it
// out of the frozen base on first mutation — the per-file analogue of
// vista's first-touch page copy. The copy has room for size bytes, the
// extent the mutation needs, with growFile's headroom, so a write past EOF
// copies an inherited file once. The second return mirrors file().
func (n *node) ownFile(path string, size int64, k *Kernel) ([]byte, bool) {
	if d, ok := n.fs[path]; ok {
		return d, true
	}
	if n.base == nil || n.deleted[path] {
		return nil, false
	}
	d, ok := n.base.fs[path]
	if !ok {
		return nil, false
	}
	room := int64(len(d))
	if size > room {
		room = size + size/2
	}
	cow := make([]byte, len(d), room)
	copy(cow, d)
	if n.fs == nil {
		n.fs = make(map[string][]byte) // COW forks defer the overlay map
	}
	n.fs[path] = cow
	k.CowFiles++
	k.CowBytes += int64(len(cow))
	return cow, true
}

// removeFile unlinks path, masking any base copy.
func (n *node) removeFile(path string) {
	delete(n.fs, path)
	if n.base != nil {
		if n.deleted == nil {
			n.deleted = make(map[string]bool)
		}
		n.deleted[path] = true
	}
}

// flatten folds the base into the node ahead of a freeze: one merged file
// map, sharing the file bytes (a frozen node's files are never written, its
// own no more than its base's), and no base reference left behind.
func (n *node) flatten() {
	fs := make(map[string][]byte, len(n.base.fs)+len(n.fs))
	for p, d := range n.base.fs {
		if !n.deleted[p] {
			fs[p] = d
		}
	}
	for p, d := range n.fs {
		fs[p] = d
	}
	n.fs, n.base, n.deleted = fs, nil, nil
}

// fdIndex finds fd in the sorted file table: its index and whether it is
// open, or else the index it would be inserted at.
func (n *node) fdIndex(fd int) (int, bool) {
	return slices.BinarySearchFunc(n.fds, fd, func(e fdEntry, fd int) int { return cmp.Compare(e.FD, fd) })
}

// fd returns fd's entry in the file table, or nil if fd is not open. The
// pointer is valid until the table next changes.
func (n *node) fd(fd int) *fdEntry {
	if i, ok := n.fdIndex(fd); ok {
		return &n.fds[i]
	}
	return nil
}

// setFD installs e in the file table, replacing the entry with the same
// descriptor if there is one, and keeps the table sorted. An entry past the
// table's last descriptor (every open) is an append.
func (n *node) setFD(e fdEntry) {
	if k := len(n.fds); k == 0 || n.fds[k-1].FD < e.FD {
		n.fds = append(n.fds, e)
		return
	}
	i, ok := n.fdIndex(e.FD)
	if ok {
		n.fds[i] = e
		return
	}
	n.fds = slices.Insert(n.fds, i, e)
}

// Kernel implements sim.OS for any number of processes, each on its own
// node (its own filesystem and file table), matching the paper's testbed
// where distributed workloads ran on four machines.
type Kernel struct {
	// Clock supplies current virtual time; the world wires it up.
	Clock func() time.Duration
	// OnCorrupt, if set, is called every time a fault corrupts a syscall
	// result for a process (the Table 2 propagation marker; callers can
	// decide per corruption whether kernel state also reached user
	// memory).
	OnCorrupt func(pid int)

	// Metrics, if non-nil, receives per-syscall and fault-study counters.
	Metrics *obs.Metrics
	// Tracer, if non-nil, receives fault-window spans and corruption
	// markers on the faulted process's track.
	Tracer *obs.Tracer

	// CowFiles and CowBytes count files privatized out of a frozen
	// template kernel on first mutation, and the bytes copied doing so.
	CowFiles int
	CowBytes int64

	// nodes is the node slab, indexed by pid: one slot per pid up to the
	// highest the kernel has served, a slot served once node() created it.
	// Nothing keeps a pointer into the slab across a node() call that may
	// grow it, except a fork's base reference into its frozen template's
	// slab, which never grows.
	nodes []node
}

// Freeze seals the kernel as an immutable fork template: forks clone its
// nodes, one node clone per node, share its file contents behind their
// nodes' base references, and it must never serve another syscall. A kernel
// that is itself a fork has each node flattened first — its base's files
// folded into one file map that shares the file bytes — so forks of it
// resolve a file lookup in one step and cost the same however many
// generations of template preceded it. Freeze is idempotent and writes
// nothing the second time, so any number of forks may then be taken
// concurrently.
func (k *Kernel) Freeze() {
	for i := range k.nodes {
		if n := &k.nodes[i]; n.base != nil {
			n.flatten()
		}
	}
}

// New returns a kernel with no nodes; nodes are created on first use.
func New() *Kernel {
	return &Kernel{Clock: func() time.Duration { return 0 }}
}

// SetObs implements sim.ObsSink: the world hands the kernel its metrics
// registry and tracer when observability is enabled.
func (k *Kernel) SetObs(m *obs.Metrics, t *obs.Tracer) {
	k.Metrics = m
	k.Tracer = t
}

// node returns pid's node, creating it on first use. It is the only path
// that creates a node: the readers look pid up with served and answer for a
// pid the kernel has never served without one, so reading a kernel never
// changes what SameState compares, and never writes a sealed template.
func (k *Kernel) node(pid int) *node {
	if pid >= len(k.nodes) {
		k.nodes = append(k.nodes, make([]node, pid+1-len(k.nodes))...)
	}
	n := &k.nodes[pid]
	if !n.served {
		*n = node{served: true, fs: make(map[string][]byte), nextFD: 3, fdLimit: MaxOpenFiles}
	}
	return n
}

// served returns pid's node, or nil if the kernel has never served pid.
func (k *Kernel) served(pid int) *node {
	if pid < 0 || pid >= len(k.nodes) || !k.nodes[pid].served {
		return nil
	}
	return &k.nodes[pid]
}

// ReadFile reads a file from pid's node directly (assertions in tests).
func (k *Kernel) ReadFile(pid int, path string) ([]byte, bool) {
	n := k.served(pid)
	if n == nil {
		return nil, false
	}
	d, ok := n.file(path)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// InjectFault opens a corruption window on pid's node starting now; after
// `window` of virtual time the kernel panics. window == 0 is an immediate
// stop failure.
func (k *Kernel) InjectFault(pid int, window time.Duration) {
	n := k.node(pid)
	n.fault = &kernelFault{start: k.Clock(), window: window}
	if k.Metrics != nil {
		k.Metrics.FaultWindows++
	}
	if k.Tracer != nil {
		k.Tracer.Begin(pid, "kernel", "fault-window", n.fault.start)
		n.fault.traced = true
	}
}

// FaultCorrupted reports whether pid's current/last fault corrupted any
// syscall result before panicking (i.e. manifested as a propagation
// failure rather than a stop failure).
func (k *Kernel) FaultCorrupted(pid int) bool {
	n := k.served(pid)
	return n != nil && n.fault != nil && n.fault.corrupted
}

// Faulted reports whether pid's node carries an injected fault: its window
// open, or closed by a panic the node has not rebooted from. It only reads
// the kernel.
func (k *Kernel) Faulted(pid int) bool {
	n := k.served(pid)
	return n != nil && n.fault != nil
}

// ExpandResources raises pid's resource limits (here: doubles the open-file
// limit) — the paper's §2.6 suggestion for converting fixed
// non-deterministic events into transient ones after a failure: the open
// that deterministically failed before the crash can succeed on
// re-execution. It returns the new limit.
func (k *Kernel) ExpandResources(pid int) int {
	n := k.node(pid)
	n.fdLimit *= 2
	return n.fdLimit
}

// Reboot clears the node's panic state and file table (open files do not
// survive a reboot); filesystem contents, being on disk, survive.
func (k *Kernel) Reboot(pid int) {
	n := k.node(pid)
	if n.fault != nil && n.fault.traced {
		// The node went down with the window still open (e.g. a stop
		// failure that never reached another syscall); close it here.
		n.fault.traced = false
		k.Tracer.End(pid, k.Clock())
	}
	n.fault = nil
	n.fds = n.fds[:0]
	n.nextFD = 3
}

// Classify returns the non-determinism class of a syscall name.
func Classify(name string) event.NDClass {
	switch name {
	case "gettimeofday", "select":
		return event.TransientND
	case "open":
		return event.FixedND
	default:
		return event.Deterministic
	}
}

// Call implements sim.OS. A one-integer result lives in per-node scratch and
// is valid until the node's next call.
func (k *Kernel) Call(pid int, name string, args [][]byte) ([][]byte, event.NDClass, error) {
	n := k.node(pid)
	nd := Classify(name)
	if n.fault != nil {
		now := k.Clock()
		if n.fault.panicked || now >= n.fault.start+n.fault.window {
			if !n.fault.panicked {
				n.fault.panicked = true
				if k.Metrics != nil {
					k.Metrics.KernelPanics++
				}
				if n.fault.traced {
					n.fault.traced = false
					k.Tracer.End(pid, now)
					k.Tracer.Instant(pid, "kernel", "panic", now)
				}
			}
			return nil, nd, ErrNodeCrashed
		}
	}
	n.Syscall++
	if k.Metrics != nil {
		k.Metrics.Syscall(pid, name)
	}
	ret, err := k.dispatch(n, name, args)
	if err != nil {
		return nil, nd, err
	}
	if n.fault != nil && !n.fault.panicked {
		ret = k.corrupt(pid, n, ret)
	}
	return ret, nd, nil
}

// corrupt flips one bit of the syscall result (if it has any payload),
// modeling buggy kernel data propagating into the application.
func (k *Kernel) corrupt(pid int, n *node, ret [][]byte) [][]byte {
	for i, part := range ret {
		if len(part) == 0 {
			continue
		}
		mut := append([]byte(nil), part...)
		bit := n.edits % int64(len(mut)*8)
		n.edits += 7 // vary the corrupted bit deterministically
		mut[bit/8] ^= 1 << (bit % 8)
		ret[i] = mut
		n.fault.corrupted = true
		if k.Metrics != nil {
			k.Metrics.FaultCorruptions++
		}
		if k.Tracer != nil {
			k.Tracer.Instant(pid, "kernel", "corrupt", k.Clock())
		}
		if k.OnCorrupt != nil {
			k.OnCorrupt(pid)
		}
		return ret
	}
	return ret
}

func (k *Kernel) dispatch(n *node, name string, args [][]byte) ([][]byte, error) {
	switch name {
	case "open":
		if len(args) < 1 {
			return nil, fmt.Errorf("kernel: open needs a path")
		}
		if len(n.fds) >= n.fdLimit {
			return nil, fmt.Errorf("kernel: out of file table slots")
		}
		path := string(args[0])
		create := len(args) > 1 && len(args[1]) > 0 && args[1][0] == 1
		if _, ok := n.file(path); !ok {
			if !create {
				return nil, fmt.Errorf("kernel: open %s: no such file", path)
			}
			n.setFile(path, nil)
		}
		fd := n.nextFD
		n.nextFD++
		n.setFD(fdEntry{FD: fd, Path: path})
		return n.i64Result(int64(fd)), nil
	case "close":
		fd, err := fdArg(args)
		if err != nil {
			return nil, err
		}
		i, ok := n.fdIndex(fd)
		if !ok {
			return nil, fmt.Errorf("kernel: close bad fd %d", fd)
		}
		n.fds = slices.Delete(n.fds, i, i+1)
		return nil, nil
	case "read":
		fd, err := fdArg(args)
		if err != nil {
			return nil, err
		}
		e := n.fd(fd)
		if e == nil {
			return nil, fmt.Errorf("kernel: read bad fd %d", fd)
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("kernel: read needs a length")
		}
		want := Int(args[1])
		data, _ := n.file(e.Path)
		if e.Offset >= int64(len(data)) {
			return [][]byte{nil}, nil
		}
		end := e.Offset + want
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		out := append([]byte(nil), data[e.Offset:end]...)
		e.Offset = end
		return [][]byte{out}, nil
	case "write":
		fd, err := fdArg(args)
		if err != nil {
			return nil, err
		}
		e := n.fd(fd)
		if e == nil {
			return nil, fmt.Errorf("kernel: write bad fd %d", fd)
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("kernel: write needs data")
		}
		data := args[1]
		need := e.Offset + int64(len(data))
		file, _ := n.ownFile(e.Path, need, k)
		if int64(len(file)) < need {
			file = growFile(file, need)
		}
		copy(file[e.Offset:], data)
		n.setFile(e.Path, file)
		e.Offset += int64(len(data))
		return n.i64Result(int64(len(data))), nil
	case "lseek":
		fd, err := fdArg(args)
		if err != nil {
			return nil, err
		}
		e := n.fd(fd)
		if e == nil {
			return nil, fmt.Errorf("kernel: lseek bad fd %d", fd)
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("kernel: lseek needs an offset")
		}
		e.Offset = Int(args[1])
		return n.i64Result(e.Offset), nil
	case "truncate":
		if len(args) < 2 {
			return nil, fmt.Errorf("kernel: truncate needs path and size")
		}
		path := string(args[0])
		size := Int(args[1])
		data, ok := n.ownFile(path, 0, k)
		if !ok {
			return nil, fmt.Errorf("kernel: truncate %s: no such file", path)
		}
		if int64(len(data)) > size {
			n.setFile(path, data[:size])
		}
		return nil, nil
	case "unlink":
		if len(args) < 1 {
			return nil, fmt.Errorf("kernel: unlink needs a path")
		}
		n.removeFile(string(args[0]))
		return nil, nil
	case "stat":
		if len(args) < 1 {
			return nil, fmt.Errorf("kernel: stat needs a path")
		}
		data, ok := n.file(string(args[0]))
		if !ok {
			return n.i64Result(-1), nil
		}
		return n.i64Result(int64(len(data))), nil
	case "gettimeofday":
		return n.i64Result(int64(k.Clock())), nil
	case "select":
		// Readiness polling: in the simulator, always "ready".
		return n.i64Result(1), nil
	case "getpid":
		return n.i64Result(0), nil
	default:
		return nil, fmt.Errorf("kernel: unknown syscall %q", name)
	}
}

// SaveProcState implements sim.OS: it serializes pid's open-file table.
// The returned slice aliases a per-node buffer reused across calls; callers
// that retain it past the node's next save must copy (the commit path
// appends it into the checkpoint image immediately).
func (k *Kernel) SaveProcState(pid int) []byte {
	n := k.node(pid)
	// Size the scratch first: a fork's node starts without it, and its
	// first save would otherwise grow it once per few fds.
	size := 16
	for _, e := range n.fds {
		size += 24 + len(e.Path)
	}
	out := n.saveBuf[:0]
	if cap(out) < size {
		out = make([]byte, 0, size)
	}
	out = AppendI64(out, int64(len(n.fds)))
	out = AppendI64(out, int64(n.nextFD))
	for _, e := range n.fds {
		out = AppendI64(out, int64(e.FD))
		out = AppendI64(out, e.Offset)
		out = AppendI64(out, int64(len(e.Path)))
		out = append(out, e.Path...)
	}
	n.saveBuf = out
	return out
}

// RestoreProcState implements sim.OS: the node reboots (clearing any panic)
// and the file table is rebuilt from the checkpointed blob — the paper's
// "copies syscall parameters and uses them to directly reconstruct relevant
// kernel state during recovery". A blob SaveProcState wrote lists its
// descriptors in ascending order, so the table refills by appending into
// the space the reboot left; any other blob still yields a sorted table:
// its entries are placed by descriptor, negative ones included, and of two
// with the same descriptor the later wins. A truncated blob restores the
// entries before the cut.
func (k *Kernel) RestoreProcState(pid int, blob []byte) {
	k.Reboot(pid)
	n := k.node(pid)
	if len(blob) < 16 {
		return
	}
	count := Int(blob[0:8])
	n.nextFD = int(Int(blob[8:16]))
	p := 16
	for i := int64(0); i < count && p+24 <= len(blob); i++ {
		fd := Int(blob[p : p+8])
		off := Int(blob[p+8 : p+16])
		plen := int(Int(blob[p+16 : p+24]))
		p += 24
		if plen < 0 || plen > len(blob)-p {
			return
		}
		path := n.reopenedPath(blob[p : p+plen])
		p += plen
		if _, ok := n.file(path); !ok {
			n.setFile(path, nil)
		}
		n.setFD(fdEntry{FD: int(fd), Path: path, Offset: off})
	}
}

// reopenedPath returns the path of the entry RestoreProcState appends next.
// The reboot before a restore leaves the table's old entries in its backing
// array, and a restore mostly reopens the files they name, so when the old
// entry in the slot names the same path its string is reused rather than
// allocated again.
func (n *node) reopenedPath(raw []byte) string {
	if i := len(n.fds); i < cap(n.fds) {
		if old := n.fds[:i+1][i].Path; old == string(raw) {
			return old
		}
	}
	return string(raw)
}

func fdArg(args [][]byte) (int, error) {
	if len(args) < 1 || len(args[0]) < 8 {
		return 0, fmt.Errorf("kernel: missing fd argument")
	}
	return int(Int(args[0])), nil
}

// I64 encodes an int64 argument/result.
func I64(v int64) []byte {
	var b [8]byte
	return AppendI64(b[:0], v)
}

// growFile extends a file buffer to n bytes, zero-filling the extension
// (write past EOF zero-fills the gap, and spare capacity may hold stale
// bytes from before a truncate). Capacity grows with headroom so a stream
// of small appends costs amortized O(1) reallocations instead of one exact
// resize per write.
func growFile(b []byte, n int64) []byte {
	if int64(cap(b)) >= n {
		old := len(b)
		b = b[:n]
		clear(b[old:])
		return b
	}
	grown := make([]byte, n, n+n/2)
	copy(grown, b)
	return grown
}

// AppendI64 appends v to buf in I64's encoding. A caller that builds its
// syscall words in scratch appends into it: AppendI64(w[:0], v) with
// cap(w) >= 8 allocates nothing.
func AppendI64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// Int decodes an int64 argument/result.
func Int(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b[:8]))
}
