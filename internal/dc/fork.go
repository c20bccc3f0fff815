package dc

import (
	"maps"

	"failtrans/internal/sim"
)

// ForkRecovery implements sim.ForkableRecovery: it seals the DC with Freeze
// and returns a copy-on-write fork of the whole Discount Checking state —
// Vista segments mid-transaction, ND logs and replay cursors, dependency
// maps, commit epochs — against the forked world w, so the fork recovers and
// commits exactly as the original would from this point on. The per-process
// records are copied by value, and then the four fields that reference
// memory are replaced: segments fork as overlay views of the sealed pages,
// dependency maps are cloned, the ND logs' segments are shared behind
// immutable references (a fork copies each log's spine with the segments
// capacity-clamped, so its appends start a segment of its own), and the
// image buffers start empty and grow lazily. The message-dependency map is
// shared too and copied top-level on the fork's first insert. The
// CommitHook/RecoveryHook/CommitVeto/ExpandResourcesOnCrash callbacks do NOT
// carry over: they are per-run harness wiring (the original's closures would
// observe the wrong run); callers re-install their own on the returned *DC
// (the concrete type is the return value's dynamic type).
func (d *DC) ForkRecovery(w *sim.World) sim.Recovery {
	d.Freeze()
	nd := &DC{
		World:    w,
		Policy:   d.Policy,
		Medium:   d.Medium,
		PageSize: d.PageSize,
		procs:    append([]proc(nil), d.procs...),
		// registers is written once at New and only ever read afterwards
		// (Segment.Commit copies it out), so every fork shares it.
		registers: d.registers,
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
	nd.Stats.Checkpoints = append([]int(nil), d.Stats.Checkpoints...)
	// Written log bytes never change, so the fork shares every segment and
	// copies only the spines, all into one backing array. Each segment is
	// capacity-clamped, so the fork's first record starts a new segment, and
	// each spine keeps one free slot for it.
	spines := 0
	for i := range d.procs {
		if k := len(d.procs[i].log.segs); k > 0 {
			spines += k + 1
		}
	}
	spine := make([][]byte, spines)
	for i := range nd.procs {
		ps := &nd.procs[i]
		if ps.seg != nil {
			ps.seg = ps.seg.Fork()
		}
		if len(ps.deps) > 0 {
			ps.deps = maps.Clone(ps.deps)
		} else {
			ps.deps = nil // the receive path allocates on first insert
		}
		if k := len(ps.log.segs); k > 0 {
			for j, seg := range ps.log.segs {
				spine[j] = seg[:len(seg):len(seg)]
			}
			slot := k + 1
			ps.log.segs = spine[:k:slot]
			spine = spine[slot:]
		}
		// img starts empty: it grows on the fork's first commit or
		// rollback, and most campaign forks crash before either. There is
		// no tracer on a fork, so no replay window is open.
		ps.img = nil
		ps.replayOpen = false
	}
	return nd
}

// Freeze seals the DC as an immutable fork template by freezing every
// segment: any later commit or rollback panics in vista, and the logs and
// dependency maps are only ever written from a World.Step, which a sealed
// world refuses. There is no thaw — a frozen DC exists only to be forked.
func (d *DC) Freeze() {
	for i := range d.procs {
		if seg := d.procs[i].seg; seg != nil {
			seg.Freeze()
		}
	}
}

// CowStats sums the copy-on-write cost this DC's segments have paid since
// forking: pages privatized out of their frozen templates and bytes copied
// doing so.
func (d *DC) CowStats() (pages int, bytes int64) {
	for i := range d.procs {
		if seg := d.procs[i].seg; seg != nil {
			pages += seg.CowPages
			bytes += seg.CowBytes
		}
	}
	return pages, bytes
}
