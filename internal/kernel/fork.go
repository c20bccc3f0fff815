package kernel

import (
	"time"

	"failtrans/internal/sim"
)

// ForkOS implements sim.ForkableOS: it copies every node — filesystem
// contents, open-file tables, fault window, corruption counters — into a
// new kernel wired to the forked world's clock. The Metrics/Tracer sinks
// and the OnCorrupt/OnPanic callbacks do not carry over: they are per-run
// harness wiring, and the original's callbacks would observe the wrong
// world. An open fault window forks with traced cleared, since the fork has
// no tracer holding the matching Begin.
//
// Forking a frozen kernel is copy-on-write and O(1): the fork carries only
// a base reference to the template kernel, each node is cloned out of the
// base on the fork's first touch (node()), and within a cloned node the
// file contents stay shared until first mutation privatizes them. Forking
// a mutable kernel deep-copies, materializing any COW overlay the source
// itself carries.
func (k *Kernel) ForkOS(clock func() time.Duration) sim.OS {
	if k.frozen {
		// Nothing is copied up front: nodes clone lazily on first touch, so
		// forks that crash before their next syscall pay one struct.
		return &Kernel{Clock: clock, base: k}
	}
	nk := &Kernel{Clock: clock, nodes: make(map[int]*node, len(k.nodes))}
	for _, pid := range k.pids() {
		n, _ := k.lookup(pid)
		nn := &node{
			fds:     make(map[int]*fdEntry, len(n.fds)),
			nextFD:  n.nextFD,
			fdLimit: n.fdLimit,
			edits:   n.edits,
			Syscall: n.Syscall,
		}
		set := make(map[string]bool, len(n.fs))
		n.addNames(set)
		nn.fs = make(map[string][]byte, len(set))
		for path := range set {
			data, _ := n.file(path)
			nn.fs[path] = append([]byte(nil), data...)
		}
		// One backing array for all fd entries: the capacity is exact, so
		// the appends never relocate the pointers already handed out.
		if len(n.fds) > 0 {
			entries := make([]fdEntry, 0, len(n.fds))
			for fd, e := range n.fds {
				entries = append(entries, fdEntry{Path: e.Path, Offset: e.Offset})
				nn.fds[fd] = &entries[len(entries)-1]
			}
		}
		if n.fault != nil {
			nn.fault = &kernelFault{
				start:     n.fault.start,
				window:    n.fault.window,
				corrupted: n.fault.corrupted,
				panicked:  n.fault.panicked,
			}
		}
		nk.nodes[pid] = nn
	}
	return nk
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
