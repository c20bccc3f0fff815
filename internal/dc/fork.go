package dc

import (
	"bytes"
	"maps"
	"slices"

	"failtrans/internal/sim"
)

// ForkRecovery implements sim.ForkableRecovery: it seals the DC with Freeze
// and returns a copy-on-write fork of the whole Discount Checking state —
// Vista segments mid-transaction, ND logs and replay cursors, taken-over
// receives, dependency maps, commit epochs — against the forked world w, so
// the fork recovers and commits exactly as the original would from this
// point on. The per-process records are copied by value, and then the five
// fields that reference memory are replaced: segments fork as overlay views
// of the sealed pages, the taken-over receives and dependency maps are
// cloned (a receive's message is immutable and shared by pointer, as in the
// world's queues), the ND logs' segments are shared behind
// immutable references (a fork copies each log's spine with the segments
// capacity-clamped, so its appends start a segment of its own), and the
// image buffers start empty and grow lazily. The message-dependency map is
// cloned, its write-once snapshots shared as the ND log's segments are: each
// is a capacity-clamped span of a slab block, and the fork carves its own
// snapshots from a block of its own. The
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
		// Message-dependency snapshots are write-once, so only the
		// top-level map is copied; the fork starts without scratch.
		msgDeps:           maps.Clone(d.msgDeps),
		msgDepsSweep:      d.msgDepsSweep,
		DisableRecovery:   d.DisableRecovery,
		CheckBeforeCommit: d.CheckBeforeCommit,
		EssentialOnly:     d.EssentialOnly,
		ChecksFailed:      d.ChecksFailed,
		Stats:             d.Stats,
	}
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
		// Replay vacates the slots it hands back, so the fork's list is its own.
		ps.retained = append([]sim.Retained(nil), ps.retained...)
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

// SameState implements sim.StateComparer: it reports whether d holds the
// template DC's state — configuration, message dependencies and, per
// process, the commit epoch, stepsBase, pending commit, ND and replay flags,
// dependencies, the taken-over receives, the ND log and the committed
// segment — up to the world's offsets. stepsBase is a Steps position and
// compares shifted by off.Proc. A commit epoch only advances and is read
// only against the dependency maps, so while none holds an entry the epochs
// match as offsets (off.Layer); otherwise exactly. The log compares as
// record bytes, its positions as byte offsets into them: a fork clamps the
// segments it inherits, so equal logs may be cut into segments differently.
// Log and retained positions are relative to stepsBase and compare exactly.
// It only reads both DCs, and answers false whenever it cannot prove
// equality. The hooks, Stats, ChecksFailed and the image buffers are harness
// wiring, statistics and scratch; they never steer a run.
func (d *DC) SameState(template any, off *sim.Offsets) bool {
	t, ok := template.(*DC)
	if !ok || !d.sameScalars(t, off) || !maps.EqualFunc(d.msgDeps, t.msgDeps, slices.Equal[depSnap]) {
		return false
	}
	for i := range d.procs {
		if !d.procs[i].sameLog(&t.procs[i]) {
			return false
		}
	}
	for i := range d.procs {
		a, b := d.procs[i].seg, t.procs[i].seg
		if (a == nil) != (b == nil) || a != nil && !a.SameContents(b) {
			return false
		}
	}
	return true
}

// sameScalars compares the configuration and every process's scalars.
func (d *DC) sameScalars(t *DC, off *sim.Offsets) bool {
	if d.Policy != t.Policy || d.Medium != t.Medium || d.PageSize != t.PageSize ||
		d.DisableRecovery != t.DisableRecovery || d.CheckBeforeCommit != t.CheckBeforeCommit ||
		d.EssentialOnly != t.EssentialOnly || len(d.procs) != len(t.procs) ||
		!bytes.Equal(d.registers, t.registers) {
		return false
	}
	free := len(d.msgDeps) == 0
	for i := range d.procs {
		free = free && len(d.procs[i].deps) == 0
	}
	for i := range d.procs {
		ps, tp := &d.procs[i], &t.procs[i]
		if ps.epoch != tp.epoch {
			if !free {
				return false
			}
			off.Layer = true
		}
		if !ps.sameScalars(tp, off) {
			return false
		}
	}
	return true
}

// sameScalars compares the per-process bookkeeping that is not the epoch,
// the log or the segment. replayOpen pairs tracer windows and does not steer
// a run.
func (ps *proc) sameScalars(t *proc, off *sim.Offsets) bool {
	return ps.stepsBase-off.Proc == t.stepsBase && ps.pendingCommit == t.pendingCommit &&
		ps.ndSince == t.ndSince && ps.replaying == t.replaying && maps.Equal(ps.deps, t.deps) &&
		sim.SameRetained(ps.retained, t.retained, off) && ps.log.size() == t.log.size() &&
		ps.log.offset(ps.watermark) == t.log.offset(t.watermark) &&
		ps.log.offset(ps.cursor) == t.log.offset(t.cursor) &&
		ps.log.offset(ps.flushed) == t.log.offset(t.flushed)
}

// sameLog compares two logs' record bytes, whatever segments hold them.
func (ps *proc) sameLog(t *proc) bool {
	a, b := ps.log.segs, t.log.segs
	var x, y []byte
	for {
		for len(x) == 0 && len(a) > 0 {
			x, a = a[0], a[1:]
		}
		for len(y) == 0 && len(b) > 0 {
			y, b = b[0], b[1:]
		}
		if len(x) == 0 || len(y) == 0 {
			return len(x) == len(y)
		}
		n := min(len(x), len(y))
		if &x[0] != &y[0] && !bytes.Equal(x[:n], y[:n]) {
			return false
		}
		x, y = x[n:], y[n:]
	}
}
