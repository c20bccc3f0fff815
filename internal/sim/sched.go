package sim

import (
	"math/bits"
	"time"
)

// This file is the event-driven scheduler: a readiness index that replaces
// Step's O(Procs) scan with a calendar queue (R. Brown, CACM 31(10), 1988),
// so fleet-scale worlds (10⁴–10⁶ processes, most of them parked) pay only
// for the processes whose readiness actually changed, and a decision costs
// O(1) amortized instead of a log n walk over cold processes.
//
// The queue is keyed on (readyAt, pid) and has three parts:
//
//   - a ring of 2^k buckets, 2^k ≥ len(Procs) and ≥ 32, each an unordered
//     doubly linked list of the processes whose readyAt falls in one slot
//     (slot = readyAt >> shift, so a bucket is 2^shift ns wide);
//   - the due slot schedCur, which only moves forward;
//   - the due run: every indexed process whose slot is at or before the due
//     slot, as one list sorted by (readyAt, pid). Its head is the pick.
//
// Every bucket entry lies strictly after the due slot and less than one lap
// (2^k slots) ahead of it, so a bucket only ever holds one slot's entries
// and the occupancy bitmap's next set bit after the due slot is the next
// occupied slot. An insert at or before the due slot goes into the due run
// by sorted insert — that covers a readyAt earlier than Clock, since Clock
// starts in the due slot at a build and only ever advances to a pick,
// which lies at or before the due slot. When the due run empties, the next
// occupied bucket becomes the due slot and its entries, merge-sorted, the
// due run. An insert more than one lap ahead doubles the width (the due
// slot halves with it, keeping both invariants) until it fits, and every
// bucket entry is re-bucketed; the width never shrinks, and a fork inherits
// its template's, so campaign forks do not learn it again. A re-key of the
// index's only entry updates it where it stands, as the due run.
//
// Determinism: every due-run entry's slot is at or before the due slot and
// every bucket entry's after it, so the due run holds the smallest keys,
// sorted, and its head is the minimum (readyAt, pid) over the whole index.
// That order is total and strict — no two processes share a pid — so the
// head is the unique process the legacy scan would have picked: the scan
// keeps the first process with the strictly smallest readyAt, i.e. the
// lowest pid among the earliest. Neither the width, nor when it doubled,
// nor the order within a bucket reaches a decision, and the scan scheduler
// survives behind World.ScanSched as the differential oracle
// (TestExecutionModeMatrix and FuzzSchedMatchesScan diff the two).
//
// Invalidation is lazy: every mutation that can change a process's readyAt
// — a message append (send), an inbox removal or rebuild (Recv, Requeue), a
// wake push-back (Delay), and the stepped process's own status/wake
// transition — marks the process dirty on a to-reindex list, and the next
// scheduling decision re-keys each dirty process exactly once before
// peeking the minimum. Mutations that cannot change readyAt (DeliverSignal,
// which is polled; ScheduleStop, checked only once the process runs;
// CommitPoint, TakeRetained and Redeliver, which touch only the retained
// list and the receive in progress) are not hooked, exactly matching the
// scan's semantics. The queue rebuilds from scratch lazily
// after construction, Init and Fork (schedBuilt=false), so forking carries
// no index cost.

// DefaultScanSched selects the scheduler for worlds built by NewWorld: false
// (the default) uses the readiness index, true the legacy O(Procs) scan.
// No command sets it; tests flip it between (never during) runs. Fork
// inherits the world's own setting, not this default.
var DefaultScanSched bool

const (
	// schedNone ends a list and marks an empty bucket.
	schedNone int32 = -1
	// schedOut in Proc.schedPrev marks a process outside the index.
	schedOut int32 = -2
	// schedMinBuckets is the smallest ring: one bitmap word.
	schedMinBuckets = 32
)

// schedLess is the scheduling order: earliest readyAt first, lowest pid on
// ties. Strict and total over distinct processes.
//
//failtrans:hotpath
func schedLess(a, b *Proc) bool {
	return a.schedAt < b.schedAt || (a.schedAt == b.schedAt && a.Index < b.Index)
}

// schedSlot is the calendar slot of a readyAt at the current width.
func (w *World) schedSlot(at time.Duration) int64 { return int64(at) >> w.schedShift }

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

// schedReindex re-keys one process: insert if it became runnable, delete if
// it became blocked, move if its wake-up moved. Same-timestamp deliveries
// batch naturally — however many messages arrived since the last decision,
// the process is reindexed once.
//
//failtrans:hotpath
func (w *World) schedReindex(p *Proc) {
	if m := w.Metrics; m != nil {
		m.SchedUpdates++
	}
	at, ok := w.readyAt(p)
	in := p.schedPrev != schedOut
	if !ok {
		if in {
			w.schedDelete(p)
		}
		return
	}
	if in {
		if at == p.schedAt {
			return
		}
		if w.schedLen == 1 && w.schedDue == int32(p.Index) {
			// The index's only entry stays where it is, the due run;
			// the due slot moves up to it if it moved later.
			p.schedAt = at
			w.schedCur = max(w.schedCur, w.schedSlot(at))
			return
		}
		w.schedDelete(p)
	}
	p.schedAt = at
	w.schedInsert(p)
}

// schedBuild constructs the index from scratch: key every runnable process
// and insert it. Runs on the first indexed scheduling decision of a world
// (fresh, Init-ed, or forked); the width is the world's own, inherited by a
// fork.
func (w *World) schedBuild() {
	nb := schedMinBuckets
	for nb < len(w.Procs) {
		nb <<= 1
	}
	if n := nb + nb/32; len(w.sched) != n {
		//failtrans:alloc one buffer per index build, bucket heads then bitmap; every later decision reuses it
		w.sched = make([]int32, n)
	}
	heads := w.sched[:nb]
	for i := range heads {
		heads[i] = schedNone
	}
	clear(w.sched[nb:])
	w.schedMask = int64(nb - 1)
	w.schedCur = w.schedSlot(w.Clock)
	w.schedDue, w.schedTail = schedNone, schedNone
	w.schedLen = 0
	w.schedStale = w.schedStale[:0]
	for _, p := range w.Procs {
		p.schedDirty = false
		p.schedPrev, p.schedNext = schedOut, schedNone
		if at, ok := w.readyAt(p); ok {
			p.schedAt = at
			w.schedInsert(p)
		}
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
	if w.schedDue == schedNone {
		if w.schedLen == 0 {
			return nil, 0
		}
		w.schedDrain()
	}
	top := w.Procs[w.schedDue]
	return top, top.schedAt
}

// schedInsert adds p (schedAt already set) to the index, widening the
// buckets first if p lands more than one lap past the due slot.
//
//failtrans:hotpath
func (w *World) schedInsert(p *Proc) {
	w.schedLen++
	s := w.schedSlot(p.schedAt)
	if s-w.schedCur > w.schedMask {
		w.schedWiden(p.schedAt)
		s = w.schedSlot(p.schedAt)
	}
	w.schedPlace(p, s)
}

// schedPlace links p into the due run or the bucket of its slot s, which is
// less than one lap past the due slot.
//
//failtrans:hotpath
func (w *World) schedPlace(p *Proc, s int64) {
	if s <= w.schedCur {
		w.schedDueInsert(p)
		return
	}
	b := s & w.schedMask
	id := int32(p.Index)
	head := w.sched[b]
	p.schedPrev, p.schedNext = schedNone, head
	if head == schedNone {
		w.sched[w.schedMask+1+b>>5] |= 1 << (b & 31)
	} else {
		w.Procs[head].schedPrev = id
	}
	w.sched[b] = id
}

// schedDueInsert links p into the due run in (readyAt, pid) order, walking
// back from the tail: a re-keyed or woken process's key is usually the
// latest.
//
//failtrans:hotpath
func (w *World) schedDueInsert(p *Proc) {
	prev, next := w.schedTail, schedNone
	for prev != schedNone {
		q := w.Procs[prev]
		if schedLess(q, p) {
			break
		}
		prev, next = q.schedPrev, prev
	}
	id := int32(p.Index)
	p.schedPrev, p.schedNext = prev, next
	if prev == schedNone {
		w.schedDue = id
	} else {
		w.Procs[prev].schedNext = id
	}
	if next == schedNone {
		w.schedTail = id
	} else {
		w.Procs[next].schedPrev = id
	}
}

// schedDelete unlinks p from the due run or its bucket. p.schedAt must still
// be the key p was inserted under.
//
//failtrans:hotpath
func (w *World) schedDelete(p *Proc) {
	w.schedLen--
	prev, next := p.schedPrev, p.schedNext
	p.schedPrev, p.schedNext = schedOut, schedNone
	s := w.schedSlot(p.schedAt)
	due := s <= w.schedCur
	if next != schedNone {
		w.Procs[next].schedPrev = prev
	} else if due {
		w.schedTail = prev
	}
	switch {
	case prev != schedNone:
		w.Procs[prev].schedNext = next
	case due:
		w.schedDue = next
	default:
		b := s & w.schedMask
		w.sched[b] = next
		if next == schedNone {
			w.sched[w.schedMask+1+b>>5] &^= 1 << (b & 31)
		}
	}
}

// schedDrain advances the due slot to the next occupied bucket and sorts
// that bucket's entries into the due run, which must be empty while the
// index is not.
//
//failtrans:hotpath
func (w *World) schedDrain() {
	words := w.sched[w.schedMask+1:]
	wmask := int64(len(words) - 1)
	from := (w.schedCur + 1) & w.schedMask
	i := from >> 5
	word := uint32(words[i]) &^ (1<<(from&31) - 1)
	for word == 0 {
		i = (i + 1) & wmask
		word = uint32(words[i])
	}
	b := i<<5 + int64(bits.TrailingZeros32(word))
	w.schedCur += (b-from)&w.schedMask + 1
	words[i] &^= 1 << (b & 31)
	e := w.sched[b]
	w.sched[b] = schedNone
	w.schedDue, w.schedTail = e, e
	if w.Procs[e].schedNext == schedNone {
		return // a bucket head's back link is already schedNone
	}
	// Sort, then restore the back links.
	e = w.schedSort(e)
	w.schedDue = e
	prev := schedNone
	for e != schedNone {
		p := w.Procs[e]
		p.schedPrev = prev
		prev, e = e, p.schedNext
	}
	w.schedTail = prev
}

// schedSort sorts a schedNext chain of two or more entries by a bottom-up
// merge sort and returns its new head; the back links are left stale.
//
//failtrans:hotpath
func (w *World) schedSort(e int32) int32 {
	// pending[k] holds a sorted run of 2^k entries while bit k of n is set.
	var pending [32]int32
	n := uint32(0)
	for e != schedNone {
		run := e
		e = w.Procs[e].schedNext
		w.Procs[run].schedNext = schedNone
		k := 0
		for ; n&(1<<k) != 0; k++ {
			run = w.schedMerge(pending[k], run)
		}
		pending[k] = run
		n++
	}
	run := schedNone
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			run = w.schedMerge(pending[k], run)
		}
	}
	return run
}

// schedMerge merges two sorted schedNext chains into one.
//
//failtrans:hotpath
func (w *World) schedMerge(a, b int32) int32 {
	head := schedNone
	var last *Proc
	for a != schedNone && b != schedNone {
		e, p := b, w.Procs[b]
		if pa := w.Procs[a]; schedLess(pa, p) {
			e, p, a = a, pa, pa.schedNext
		} else {
			b = p.schedNext
		}
		if last == nil {
			head = e
		} else {
			last.schedNext = e
		}
		last = p
	}
	if a == schedNone {
		a = b
	}
	if last == nil {
		return a
	}
	last.schedNext = a
	return head
}

// schedWiden doubles the bucket width until at lands less than one lap past
// the due slot, then re-buckets every bucket entry; those now at or before
// the due slot join the due run. The due run itself stays valid: halving
// keeps its slots at or before the due slot.
func (w *World) schedWiden(at time.Duration) {
	k := uint(1)
	for int64(at)>>(w.schedShift+k)-w.schedCur>>k > w.schedMask {
		k++
	}
	w.schedShift += k
	w.schedCur >>= k
	words := w.sched[w.schedMask+1:]
	chain := schedNone
	for i, word := range words {
		for word != 0 {
			b := int64(i)<<5 + int64(bits.TrailingZeros32(uint32(word)))
			word &= word - 1
			for e := w.sched[b]; e != schedNone; {
				p := w.Procs[e]
				e, p.schedNext = p.schedNext, chain
				chain = int32(p.Index)
			}
			w.sched[b] = schedNone
		}
	}
	clear(words)
	for chain != schedNone {
		p := w.Procs[chain]
		chain = p.schedNext
		w.schedPlace(p, w.schedSlot(p.schedAt))
	}
}
