package kernel

import (
	"bytes"
	"time"

	"failtrans/internal/sim"
)

// ForkOS implements sim.ForkableOS: it seals the kernel with Freeze and
// returns a copy-on-write fork wired to the forked world's clock. The fork
// is O(1) — it carries only a base reference to the receiver; each node is
// cloned out of the base on the fork's first touch (node()), so forks that
// crash before their next syscall pay one struct, and within a cloned node
// the file contents stay shared until first mutation privatizes them. The
// Metrics/Tracer sinks and the OnCorrupt/OnPanic callbacks do not carry over:
// they are per-run harness wiring, and the original's callbacks would observe
// the wrong world.
func (k *Kernel) ForkOS(clock func() time.Duration) sim.OS {
	k.Freeze()
	return &Kernel{Clock: clock, base: k}
}

// cloneNode copies a frozen template node for a COW fork: file tables and
// counters are copied, file contents stay shared behind the base reference
// (tn belongs to a frozen kernel, so it can never change), and an open
// fault window clones with traced cleared, since the fork has no tracer
// holding the matching Begin.
func cloneNode(tn *node) *node {
	nn := &node{
		nextFD:  tn.nextFD,
		fdLimit: tn.fdLimit,
		edits:   tn.edits,
		Syscall: tn.Syscall,
		base:    tn,
	}
	if len(tn.fds) > 0 {
		nn.fds = make(map[int]*fdEntry, len(tn.fds))
		entries := make([]fdEntry, 0, len(tn.fds))
		for fd, e := range tn.fds {
			entries = append(entries, fdEntry{Path: e.Path, Offset: e.Offset})
			nn.fds[fd] = &entries[len(entries)-1]
		}
	} else {
		nn.fds = make(map[int]*fdEntry)
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
// exactly the template kernel's state — per node the file table, the
// open-file limit, the fault window, the corruption counter, the syscall
// count and every file's contents. It only reads both kernels: nodes are
// looked up overlay-first without node(), which would clone one, and files
// through the read-only file(). Files the two share by reference compare
// equal without a byte compare. With equal node and file counts, finding
// every template node and file in k proves the sets equal, so SameState
// walks the template's maps (a frozen kernel has one of each) and k's own
// overlays, never the maps k shares with its own template.
func (k *Kernel) SameState(template any) bool {
	t, ok := template.(*Kernel)
	return ok && k.nodeCount() == t.nodeCount() && k.sameNodes(t)
}

// sameNodes reports whether every node of t has an equal node of the same
// pid in k.
func (k *Kernel) sameNodes(t *Kernel) bool {
	for pid, tn := range t.nodes {
		if n := k.peek(pid); n == nil || !n.sameState(tn) {
			return false
		}
	}
	if t.base != nil {
		for pid, tn := range t.base.nodes {
			if _, own := t.nodes[pid]; own {
				continue
			}
			if n := k.peek(pid); n == nil || !n.sameState(tn) {
				return false
			}
		}
	}
	return true
}

// peek returns pid's node without materializing it: the kernel's own, else
// its template's, else nil.
func (k *Kernel) peek(pid int) *node {
	if n, ok := k.nodes[pid]; ok {
		return n
	}
	if k.base != nil {
		return k.base.nodes[pid]
	}
	return nil
}

// nodeCount is how many nodes the kernel has, its own and its template's.
// It walks only the kernel's own map, which a fork fills one touched node at
// a time.
func (k *Kernel) nodeCount() int {
	c := len(k.nodes)
	if k.base != nil {
		c += len(k.base.nodes)
		for pid := range k.nodes {
			if _, shared := k.base.nodes[pid]; shared {
				c--
			}
		}
	}
	return c
}

// sameScalars compares two nodes' counters, limits, fault window and file
// table.
func (n *node) sameScalars(t *node) bool {
	if n == t {
		return true
	}
	if n.nextFD != t.nextFD || n.fdLimit != t.fdLimit || n.edits != t.edits || n.Syscall != t.Syscall ||
		len(n.fds) != len(t.fds) || !sameFault(n.fault, t.fault) {
		return false
	}
	for fd, e := range n.fds {
		te, ok := t.fds[fd]
		if !ok || e.Path != te.Path || e.Offset != te.Offset {
			return false
		}
	}
	return true
}

// sameState compares two nodes' behaviour-relevant state; see
// Kernel.SameState.
func (n *node) sameState(t *node) bool {
	if n == t {
		return true
	}
	if !n.sameScalars(t) || n.fileCount() != t.fileCount() {
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

// sameFault compares two fault windows; traced is tracer bookkeeping.
func sameFault(a, b *kernelFault) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.start == b.start && a.window == b.window && a.corrupted == b.corrupted && a.panicked == b.panicked
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
