package kernel

import (
	"bytes"
	"slices"
	"time"

	"failtrans/internal/sim"
)

// ForkOS implements sim.ForkableOS: it seals the kernel with Freeze and
// returns a fork wired to the forked world's clock. The fork clones every
// node up front (cloneNode) into one node slab, and every node's file table
// into one descriptor array they share: its file tables, limits and
// counters are its own from the start, and only the file contents stay
// shared until a first mutation privatizes them (ownFile). That is three
// allocations however many nodes and open files there are, and one more per
// open fault window. The Metrics/Tracer sinks and the OnCorrupt callback do
// not carry over: they are per-run harness wiring, and the original's
// callback would observe the wrong world.
func (k *Kernel) ForkOS(clock func() time.Duration) sim.OS {
	k.Freeze()
	total := 0
	for i := range k.nodes {
		total += len(k.nodes[i].fds)
	}
	f := &Kernel{Clock: clock, nodes: make([]node, len(k.nodes))}
	fds := make([]fdEntry, total)
	for i := range k.nodes {
		if tn := &k.nodes[i]; tn.served {
			m := copy(fds, tn.fds)
			f.nodes[i] = cloneNode(tn, fds[:m:m])
			fds = fds[m:]
		}
	}
	return f
}

// cloneNode copies a frozen template node for a COW fork: counters are
// copied, fds is the node's copy of the file table — capacity-clamped, so
// growing it moves it out of the array the fork's nodes share — file
// contents stay shared behind the base reference (tn belongs to a frozen
// kernel, so it can never change), and an open fault window clones with
// traced cleared, since the fork has no tracer holding the matching Begin.
func cloneNode(tn *node, fds []fdEntry) node {
	nn := node{
		served:  true,
		fds:     fds,
		nextFD:  tn.nextFD,
		fdLimit: tn.fdLimit,
		edits:   tn.edits,
		Syscall: tn.Syscall,
		base:    tn,
	}
	if tn.fault != nil {
		nn.fault = &kernelFault{
			start:     tn.fault.start,
			window:    tn.fault.window,
			corrupted: tn.fault.corrupted,
			panicked:  tn.fault.panicked,
		}
	}
	return nn
}

// SameState implements sim.StateComparer: it reports whether k's nodes hold
// the template kernel's state — per node the file table, the open-file
// limit, the fault window, the corruption counter, the syscall count and
// every file's contents — up to the world's offsets. The syscall and
// corruption counters only advance, and only an open fault window reads the
// latter, so while neither node has a fault they match as offsets
// (off.Layer); a fault window's start is a clock position and compares
// shifted by off.Clock. It only reads both kernels: files are read through
// the read-only file(), and files the two share by reference compare equal
// without a byte compare. With equal node and file counts, finding every
// template node and file in k proves the sets equal, so SameState walks the
// template's maps (a frozen kernel has one of each) and k's own overlays,
// never the file maps k's nodes share with their template's. Both node
// slabs end at their highest served pid, so equal node sets make equal
// lengths.
func (k *Kernel) SameState(template any, off *sim.Offsets) bool {
	t, ok := template.(*Kernel)
	if !ok || len(k.nodes) != len(t.nodes) {
		return false
	}
	for pid := range t.nodes {
		n, tn := &k.nodes[pid], &t.nodes[pid]
		if n.served != tn.served || tn.served && !n.sameState(tn, off) {
			return false
		}
	}
	return true
}

// sameScalars compares two nodes' counters, limits, fault window and file
// table.
func (n *node) sameScalars(t *node, off *sim.Offsets) bool {
	if n == t {
		return true
	}
	if n.nextFD != t.nextFD || n.fdLimit != t.fdLimit || !sameFault(n.fault, t.fault, off.Clock) {
		return false
	}
	if n.edits != t.edits || n.Syscall != t.Syscall {
		if n.fault != nil || t.fault != nil {
			return false
		}
		off.Layer = true
	}
	return slices.Equal(n.fds, t.fds)
}

// sameState compares two nodes' behaviour-relevant state; see
// Kernel.SameState.
func (n *node) sameState(t *node, off *sim.Offsets) bool {
	if n == t {
		return true
	}
	if !n.sameScalars(t, off) || n.fileCount() != t.fileCount() {
		return false
	}
	for p, td := range t.fs {
		if !n.sameFile(p, td) {
			return false
		}
	}
	if t.base != nil {
		for p, td := range t.base.fs {
			if _, own := t.fs[p]; !own && !t.deleted[p] && !n.sameFile(p, td) {
				return false
			}
		}
	}
	return true
}

// sameFile reports whether the node's file at path holds exactly data.
func (n *node) sameFile(path string, data []byte) bool {
	d, ok := n.file(path)
	return ok && len(d) == len(data) && (len(d) == 0 || &d[0] == &data[0] || bytes.Equal(d, data))
}

// sameFault compares two fault windows, a's start shifted back by dt;
// traced is tracer bookkeeping.
func sameFault(a, b *kernelFault, dt time.Duration) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.start-dt == b.start && a.window == b.window && a.corrupted == b.corrupted && a.panicked == b.panicked
}

// fileCount is how many live files the node has: its own, and its
// template's that it has neither replaced nor unlinked. It walks only the
// node's own overlay and unlink mask (disjoint: setFile clears a mask entry
// and removeFile drops an own file), which a fork fills one touched file at
// a time.
func (n *node) fileCount() int {
	c := len(n.fs)
	if n.base != nil {
		c += len(n.base.fs)
		for p := range n.fs {
			if _, shared := n.base.fs[p]; shared {
				c--
			}
		}
		for p := range n.deleted {
			if _, shared := n.base.fs[p]; shared {
				c--
			}
		}
	}
	return c
}
