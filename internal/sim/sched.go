package sim

import "time"

// This file is the event-driven scheduler: a readiness index that replaces
// Step's O(Procs) scan with an O(log active) heap lookup, so fleet-scale
// worlds (10⁴–10⁶ processes, most of them parked) pay only for the
// processes whose readiness actually changed.
//
// The index is a binary min-heap of runnable processes ordered by
// (readyAt, pid). That order is total and strict — no two processes share a
// pid — so the heap's minimum is the unique process the legacy scan would
// have picked: the scan keeps the first process with the strictly smallest
// readyAt, i.e. the lowest pid among the earliest. Byte-identical schedules
// therefore do not depend on the heap's internal arrangement, only on the
// comparison key, and the scan scheduler survives behind World.ScanSched as
// the differential oracle (TestExecutionModeMatrix diffs the two).
//
// Invalidation is lazy: every mutation that can change a process's readyAt
// — a message append (send, RequeueLogged), an inbox removal or rebuild
// (Recv, flushReplayQueue), a wake push-back (Delay), arming redelivery
// (RequeueRetained), and the stepped process's own status/wake transition —
// marks the process dirty on a to-reindex list, and the next scheduling
// decision re-keys each dirty process exactly once before peeking the
// minimum. Mutations that cannot change readyAt (DeliverSignal, which is
// polled; ScheduleStop, checked only once the process runs; CommitPoint and
// DropRetained, which touch only the retained list) are not hooked, exactly
// matching the scan's semantics. The heap rebuilds from scratch lazily
// after construction and after Fork (schedBuilt=false), so forking carries
// no index cost.

// DefaultScanSched selects the scheduler for worlds built by NewWorld: false
// (the default) uses the readiness index, true the legacy O(Procs) scan.
// No command sets it; tests flip it between (never during) runs. Fork
// inherits the world's own setting, not this default.
var DefaultScanSched bool

// schedLess is the scheduling order: earliest readyAt first, lowest pid on
// ties. Strict and total over distinct processes.
//
//failtrans:hotpath
func schedLess(a, b *Proc) bool {
	return a.schedAt < b.schedAt || (a.schedAt == b.schedAt && a.Index < b.Index)
}

// schedTouch marks p's readiness stale; the next scheduling decision will
// reindex it. No-op until the index exists (the first indexed Step builds
// it from scratch, and scan-scheduled worlds never build one).
//
//failtrans:hotpath
func (w *World) schedTouch(p *Proc) {
	if !w.schedBuilt || p.schedDirty {
		return
	}
	p.schedDirty = true
	w.schedStale = append(w.schedStale, p)
}

// schedReindex re-keys one process: push if it became runnable, remove if it
// became blocked, sift if its wake-up moved. Same-timestamp deliveries batch
// naturally — however many messages arrived since the last decision, the
// process is reindexed once.
//
//failtrans:hotpath
func (w *World) schedReindex(p *Proc) {
	if m := w.Metrics; m != nil {
		m.SchedUpdates++
	}
	at, ok := w.readyAt(p)
	if !ok {
		if p.schedIdx >= 0 {
			w.schedRemove(p)
		}
		return
	}
	if p.schedIdx < 0 {
		p.schedAt = at
		w.schedPush(p)
		return
	}
	if at == p.schedAt {
		return
	}
	up := at < p.schedAt
	p.schedAt = at
	if up {
		w.schedUp(p.schedIdx)
	} else {
		w.schedDown(p.schedIdx)
	}
}

// schedBuild constructs the index from scratch: key every runnable process
// and heapify. Runs on the first indexed scheduling decision of a world
// (fresh, Init-ed, or forked).
func (w *World) schedBuild() {
	if cap(w.sched) < len(w.Procs) {
		//failtrans:alloc one-time heap backing per world; every later decision reuses it
		w.sched = make([]*Proc, 0, len(w.Procs))
	}
	w.sched = w.sched[:0]
	w.schedStale = w.schedStale[:0]
	for _, p := range w.Procs {
		p.schedDirty = false
		p.schedIdx = -1
		if at, ok := w.readyAt(p); ok {
			p.schedAt = at
			p.schedIdx = len(w.sched)
			w.sched = append(w.sched, p)
		}
	}
	for i := len(w.sched)/2 - 1; i >= 0; i-- {
		w.schedDown(i)
	}
	w.schedBuilt = true
	if m := w.Metrics; m != nil {
		m.SchedRebuilds++
	}
}

// schedPick returns the earliest runnable process and its readyAt via the
// index, or nil when nothing can run. It peeks without popping: the caller
// may decline to run the pick (MaxTime), and the post-step schedTouch
// re-keys the stepped process anyway.
//
//failtrans:hotpath
func (w *World) schedPick() (*Proc, time.Duration) {
	if !w.schedBuilt {
		w.schedBuild()
	}
	for _, p := range w.schedStale {
		p.schedDirty = false
		w.schedReindex(p)
	}
	w.schedStale = w.schedStale[:0]
	if len(w.sched) == 0 {
		return nil, 0
	}
	top := w.sched[0]
	return top, top.schedAt
}

// schedPush inserts p (schedAt already set) into the heap.
//
//failtrans:hotpath
func (w *World) schedPush(p *Proc) {
	p.schedIdx = len(w.sched)
	w.sched = append(w.sched, p)
	w.schedUp(p.schedIdx)
}

// schedRemove deletes p from the heap.
//
//failtrans:hotpath
func (w *World) schedRemove(p *Proc) {
	i := p.schedIdx
	n := len(w.sched) - 1
	last := w.sched[n]
	w.sched[n] = nil
	w.sched = w.sched[:n]
	p.schedIdx = -1
	if i == n {
		return
	}
	w.sched[i] = last
	last.schedIdx = i
	w.schedDown(i)
	w.schedUp(i)
}

// schedUp sifts the element at i toward the root.
//
//failtrans:hotpath
func (w *World) schedUp(i int) {
	s := w.sched
	p := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !schedLess(p, s[parent]) {
			break
		}
		s[i] = s[parent]
		s[i].schedIdx = i
		i = parent
	}
	s[i] = p
	p.schedIdx = i
}

// schedDown sifts the element at i toward the leaves.
//
//failtrans:hotpath
func (w *World) schedDown(i int) {
	s := w.sched
	n := len(s)
	p := s[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && schedLess(s[r], s[c]) {
			c = r
		}
		if !schedLess(s[c], p) {
			break
		}
		s[i] = s[c]
		s[i].schedIdx = i
		i = c
	}
	s[i] = p
	p.schedIdx = i
}

// SchedLen reports how many processes the readiness index currently holds —
// the "active" in O(active). Zero for scan-scheduled worlds and before the
// first indexed decision.
func (w *World) SchedLen() int { return len(w.sched) }
