package kernel

import (
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
