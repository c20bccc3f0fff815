package dc

import (
	"failtrans/internal/sim"
	"failtrans/internal/vista"
)

// ForkRecovery implements sim.ForkableRecovery: it seals the DC with Freeze
// and returns a copy-on-write fork of the whole Discount Checking state —
// Vista segments mid-transaction, ND logs and replay cursors, dependency
// maps, commit epochs — against the forked world w, so the fork recovers and
// commits exactly as the original would from this point on. Segments fork as
// overlay views of the sealed pages, the ND logs' segments and the
// message-dependency map are shared behind immutable references (a fork
// copies each log's spine with the segments capacity-clamped, so its appends
// start a segment of its own; msgDeps is copied top-level on first insert),
// and the per-process image buffers start empty and grow lazily. The
// CommitHook/RecoveryHook/CommitVeto/ExpandResourcesOnCrash callbacks do NOT
// carry over: they are per-run harness wiring (the original's closures would
// observe the wrong run); callers re-install their own on the returned *DC
// (the concrete type is the return value's dynamic type).
func (d *DC) ForkRecovery(w *sim.World) sim.Recovery {
	d.Freeze()
	n := len(d.segs)
	// The fixed-length per-process bookkeeping shares two backing arrays —
	// forks are taken millions of times per campaign, and each separate
	// small slice is one more allocation on that path. Capacity clamps keep
	// an (impossible today) append from crossing into a neighbor field.
	ints := make([]int, 6*n)
	bools := make([]bool, 3*n)
	nd := &DC{
		World:         w,
		Policy:        d.Policy,
		Medium:        d.Medium,
		PageSize:      d.PageSize,
		segs:          make([]*vista.Segment, n),
		ndSince:       bools[0:n:n],
		deps:          make([]map[int]int, n),
		epoch:         ints[0:n:n],
		logs:          make([]ndLog, n),
		watermark:     ints[n : 2*n : 2*n],
		replaying:     bools[n : 2*n : 2*n],
		cursor:        ints[2*n : 3*n : 3*n],
		stepsBase:     ints[3*n : 4*n : 4*n],
		replayOpen:    bools[2*n : 3*n : 3*n], // stays false: no tracer on a fork
		flushed:       ints[4*n : 5*n : 5*n],
		pendingCommit: append([]string(nil), d.pendingCommit...),
		// registers is written once at New and only ever read afterwards
		// (Segment.Commit copies it out), so every fork shares it.
		registers: d.registers,
		// imgBuf slots stay nil: they grow on the fork's first commit or
		// rollback, and most campaign forks crash before either.
		imgBuf: make([][]byte, n),
		// Message-dependency snapshots are write-once; the top-level map is
		// copied on the fork's first insert (mutableMsgDeps).
		msgDeps:           d.msgDeps,
		msgDepsShared:     true,
		DisableRecovery:   d.DisableRecovery,
		CheckBeforeCommit: d.CheckBeforeCommit,
		EssentialOnly:     d.EssentialOnly,
		ChecksFailed:      d.ChecksFailed,
		Stats:             d.Stats,
	}
	copy(nd.ndSince, d.ndSince)
	copy(nd.replaying, d.replaying)
	copy(nd.epoch, d.epoch)
	copy(nd.watermark, d.watermark)
	copy(nd.cursor, d.cursor)
	copy(nd.stepsBase, d.stepsBase)
	copy(nd.flushed, d.flushed)
	nd.Stats.Checkpoints = ints[5*n : 6*n : 6*n]
	copy(nd.Stats.Checkpoints, d.Stats.Checkpoints)
	for i, dep := range d.deps {
		if len(dep) == 0 {
			continue // the receive path allocates on first insert
		}
		nd.deps[i] = make(map[int]int, len(dep))
		for q, ep := range dep {
			nd.deps[i][q] = ep
		}
	}
	for i, seg := range d.segs {
		if seg != nil {
			nd.segs[i] = seg.Fork()
		}
	}
	// Written log bytes never change, so the fork shares every segment and
	// copies only the spines, all into one backing array. Each segment is
	// capacity-clamped, so the fork's first record starts a new segment, and
	// each spine keeps one free slot for it.
	spines := 0
	for _, l := range d.logs {
		if len(l.segs) > 0 {
			spines += len(l.segs) + 1
		}
	}
	spine := make([][]byte, spines)
	for i, l := range d.logs {
		if k := len(l.segs); k > 0 {
			for j, seg := range l.segs {
				spine[j] = seg[:len(seg):len(seg)]
			}
			slot := k + 1
			nd.logs[i].segs = spine[:k:slot]
			spine = spine[slot:]
		}
	}
	return nd
}

// Freeze seals the DC as an immutable fork template by freezing every
// segment: any later commit or rollback panics in vista, and the logs and
// dependency maps are only ever written from a World.Step, which a sealed
// world refuses. There is no thaw — a frozen DC exists only to be forked.
func (d *DC) Freeze() {
	for _, seg := range d.segs {
		if seg != nil {
			seg.Freeze()
		}
	}
}

// CowStats sums the copy-on-write cost this DC's segments have paid since
// forking: pages privatized out of their frozen templates and bytes copied
// doing so.
func (d *DC) CowStats() (pages int, bytes int64) {
	for _, seg := range d.segs {
		if seg != nil {
			pages += seg.CowPages
			bytes += seg.CowBytes
		}
	}
	return pages, bytes
}
