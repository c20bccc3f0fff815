// Package treadmarks reimplements the paper's distributed scientific
// workload: a page-based software distributed shared memory system running
// a Barnes-Hut N-body simulation across four simulated machines.
//
// Substitution note (see DESIGN.md): TreadMarks proper implements lazy
// release consistency with twins, diffs and interval vector timestamps. We
// implement the classic Li & Hudak fixed-distributed-manager ownership
// protocol instead — a real published DSM design whose event shape (copious
// message sends and receives per page fault, barriers through a manager,
// almost no visible events) matches what the paper's measurements depend
// on, while being tractable to verify: a four-process run must produce
// bit-identical physics to the sequential oracle.
//
// Protocol: every page has a manager (page % nprocs) that serializes
// transfers. A faulting process sends REQ to the manager; the manager marks
// the page busy and sends FETCH to the current owner; the owner gives up
// the page and returns DATA to the manager; the manager GRANTs page +
// ownership to the requester and serves the next queued REQ. Barriers
// funnel through process 0.
package treadmarks

import (
	"fmt"

	"failtrans/internal/apps/apputil"
)

// PageSize is the DSM page granularity in bytes.
const PageSize = 1024

// Message types.
const (
	msgReq   = iota + 1 // requester -> manager: I need this page
	msgFetch            // manager -> owner: surrender the page
	msgData             // owner -> manager: page contents
	msgGrant            // manager -> requester: page contents + ownership
	msgBEnter
	msgBRelease
	msgLockAcq
	msgLockRel
	msgLockGrant
)

// dsmMsg is the wire format of every DSM message.
type dsmMsg struct {
	Type int
	Page int
	// Requester identifies who a FETCH/DATA cycle is ultimately for.
	Requester int
	// Barrier sequence number for enter/release.
	Barrier int
	Data    []byte
}

// appendTo appends the wire form to e; encodedLen is its length.
func (m dsmMsg) appendTo(e *apputil.Enc) {
	e.Int(m.Type)
	e.Int(m.Page)
	e.Int(m.Requester)
	e.Int(m.Barrier)
	e.Bytes(m.Data)
}

func (m dsmMsg) encodedLen() int { return 5*8 + len(m.Data) }

// decodeMsg decodes one wire message. Data is a capacity-clamped view of b,
// not a copy: a delivered payload never changes, so a message can hold its
// page until it is stored (storePage copies it) or forwarded (Ctx.Send
// copies it). A hostile length fails with apputil.ErrNegLength or
// apputil.ErrOverrun and views nothing.
func decodeMsg(b []byte) (dsmMsg, error) {
	d := apputil.Dec{B: b}
	m := dsmMsg{
		Type:      d.Int(),
		Page:      d.Int(),
		Requester: d.Int(),
		Barrier:   d.Int(),
		Data:      d.BytesView(),
	}
	return m, d.Err
}

// outMsg is a queued send.
type outMsg struct {
	To  int
	Msg dsmMsg
	// own marks Msg.Data as a page buffer this process surrendered, which
	// goes to the spare pool once the message is sent (popOutbox), rather
	// than a view of a received payload.
	own bool
}

// dsm is one process's view of the shared memory.
type dsm struct {
	Me       int
	NumProcs int
	NumPages int

	// Pages I currently own (and their contents).
	Pages map[int][]byte
	// Owner records for pages I manage (page % NumProcs == Me).
	Owner map[int]int
	// Busy/queue for pages I manage, serializing transfers.
	Busy  map[int]bool
	Queue map[int][]int

	// Outbox of protocol messages to send, one per step.
	Outbox []outMsg

	// AwaitPage is the page I'm blocked faulting on (-1 when none).
	AwaitPage int

	// Barrier state.
	BarrierSeq     int
	BarrierWaiting bool
	BarrierCount   int // manager only (process 0)

	// Lock state. Locks are TreadMarks' second synchronization
	// primitive; process 0 manages them all. Page carries the lock id
	// in lock messages.
	LockWaiting bool
	HeldLocks   map[int]bool
	// Manager-side (process 0): current owner per lock (-1 = free) and
	// FIFO waiter queues.
	LockOwner map[int]int
	LockQueue map[int][]int

	// Stats.
	Faults    int64
	Transfers int64

	// keys is marshal's scratch for the sorted key lists (not state).
	keys []int
	// spare is scratch, not state: surrendered page buffers whose messages
	// have been sent, which storePage reuses before allocating.
	spare [][]byte
}

// newDSM initializes page ownership round-robin: page p starts owned by its
// manager.
func newDSM(me, nprocs, npages int) *dsm {
	d := &dsm{
		Me: me, NumProcs: nprocs, NumPages: npages,
		Pages: make(map[int][]byte), Owner: make(map[int]int),
		Busy: make(map[int]bool), Queue: make(map[int][]int),
		AwaitPage: -1,
		HeldLocks: make(map[int]bool),
		LockOwner: make(map[int]int), LockQueue: make(map[int][]int),
	}
	for p := 0; p < npages; p++ {
		if d.manager(p) == me {
			d.Owner[p] = me
			d.Pages[p] = make([]byte, PageSize)
		}
	}
	return d
}

func (d *dsm) manager(page int) int { return page % d.NumProcs }

// Have reports whether the page is locally owned.
func (d *dsm) Have(page int) bool {
	_, ok := d.Pages[page]
	return ok
}

// storePage takes ownership of a page: the one copy a transferred page's
// bytes get, into a spare buffer when there is one.
func (d *dsm) storePage(page int, data []byte) {
	var buf []byte
	if n := len(d.spare); n > 0 && cap(d.spare[n-1]) >= len(data) {
		buf = d.spare[n-1][:len(data)]
		d.spare[n-1] = nil
		d.spare = d.spare[:n-1]
	} else {
		//failtrans:alloc amortized page-pool growth: a process allocates a buffer only while it holds more pages than it has ever surrendered
		buf = make([]byte, len(data))
	}
	copy(buf, data)
	d.Pages[page] = buf
}

// popOutbox drops the sent head of the outbox in place, so the next append
// reuses the backing array instead of reallocating behind a resliced front,
// and gives a surrendered page's buffer to the spare pool.
func (d *dsm) popOutbox() {
	if h := &d.Outbox[0]; h.own {
		d.spare = append(d.spare, h.Msg.Data)
	}
	n := copy(d.Outbox, d.Outbox[1:])
	d.Outbox[n] = outMsg{} // pins no page
	d.Outbox = d.Outbox[:n]
}

// popFront removes and returns q's first element in place.
func popFront(q []int) (int, []int) {
	head := q[0]
	n := copy(q, q[1:])
	return head, q[:n]
}

// Fault initiates a page fetch; the caller then waits for AwaitPage to
// clear.
func (d *dsm) Fault(page int) {
	d.Faults++
	d.AwaitPage = page
	d.Outbox = append(d.Outbox, outMsg{
		To:  d.manager(page),
		Msg: dsmMsg{Type: msgReq, Page: page, Requester: d.Me},
	})
}

// Handle processes one incoming DSM message, queueing any replies. m.Data
// may be a view of the received payload (decodeMsg): it is copied where a
// page is stored and nowhere else.
func (d *dsm) Handle(m dsmMsg) error {
	switch m.Type {
	case msgReq:
		if d.manager(m.Page) != d.Me {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: REQ for page %d at non-manager %d", m.Page, d.Me)
		}
		d.Queue[m.Page] = append(d.Queue[m.Page], m.Requester)
		d.pump(m.Page)
	case msgFetch:
		data, ok := d.Pages[m.Page]
		if !ok {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: FETCH of page %d from non-owner %d", m.Page, d.Me)
		}
		delete(d.Pages, m.Page) // surrender ownership
		d.Transfers++
		d.Outbox = append(d.Outbox, outMsg{
			To:  d.manager(m.Page),
			Msg: dsmMsg{Type: msgData, Page: m.Page, Requester: m.Requester, Data: data},
			own: true,
		})
	case msgData:
		if d.manager(m.Page) != d.Me {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: DATA for page %d at non-manager %d", m.Page, d.Me)
		}
		d.grant(m.Page, m.Requester, m.Data, false)
	case msgGrant:
		if len(m.Data) == 0 && d.Have(m.Page) {
			// Stale-fault confirmation: local copy is authoritative.
		} else {
			d.storePage(m.Page, m.Data)
		}
		if d.AwaitPage == m.Page {
			d.AwaitPage = -1
		}
	case msgBEnter:
		if d.Me != 0 {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: BENTER at non-coordinator %d", d.Me)
		}
		d.BarrierCount++
		d.releaseBarrierIfReady()
	case msgBRelease:
		if m.Barrier == d.BarrierSeq && d.BarrierWaiting {
			d.BarrierWaiting = false
			d.BarrierSeq++
		}
	case msgLockAcq:
		if d.Me != 0 {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: LOCK_ACQ at non-manager %d", d.Me)
		}
		owner, held := d.LockOwner[m.Page]
		if !held || owner < 0 {
			d.lockGrant(m.Page, m.Requester)
		} else {
			d.LockQueue[m.Page] = append(d.LockQueue[m.Page], m.Requester)
		}
	case msgLockRel:
		if d.Me != 0 {
			//failtrans:alloc cold error path: a protocol violation crashes the process
			return fmt.Errorf("treadmarks: LOCK_REL at non-manager %d", d.Me)
		}
		d.LockOwner[m.Page] = -1
		if q := d.LockQueue[m.Page]; len(q) > 0 {
			var next int
			next, d.LockQueue[m.Page] = popFront(q)
			d.lockGrant(m.Page, next)
		}
	case msgLockGrant:
		d.HeldLocks[m.Page] = true
		d.LockWaiting = false
	default:
		//failtrans:alloc cold error path: a protocol violation crashes the process
		return fmt.Errorf("treadmarks: unknown message type %d", m.Type)
	}
	return nil
}

// pump serves the next queued request for a page I manage.
func (d *dsm) pump(page int) {
	if d.Busy[page] || len(d.Queue[page]) == 0 {
		return
	}
	var req int
	req, d.Queue[page] = popFront(d.Queue[page])
	owner := d.Owner[page]
	if req == owner {
		// Stale fault: the requester already owns the page. Confirm
		// with an empty GRANT (the requester's copy is authoritative)
		// so it does not wait forever.
		if req == d.Me {
			if d.AwaitPage == page {
				d.AwaitPage = -1
			}
		} else {
			d.Outbox = append(d.Outbox, outMsg{
				To:  req,
				Msg: dsmMsg{Type: msgGrant, Page: page},
			})
		}
		d.pump(page)
		return
	}
	d.Busy[page] = true
	if owner == d.Me {
		data, ok := d.Pages[page]
		if !ok {
			// Manager believed itself owner but lacks the page:
			// protocol corruption.
			//failtrans:alloc cold error path: protocol corruption panics
			panic(fmt.Sprintf("treadmarks: manager %d lost page %d", d.Me, page))
		}
		delete(d.Pages, page)
		d.Transfers++
		d.grant(page, req, data, true)
		return
	}
	d.Outbox = append(d.Outbox, outMsg{
		To:  owner,
		Msg: dsmMsg{Type: msgFetch, Page: page, Requester: req},
	})
}

// grant hands page + ownership to the requester and unblocks the queue.
// own marks data as the manager's own surrendered buffer rather than a view
// of a DATA payload.
func (d *dsm) grant(page, req int, data []byte, own bool) {
	d.Owner[page] = req
	d.Busy[page] = false
	if req == d.Me {
		// Manager requested its own page back (from another owner's
		// DATA: pump never grants the manager its own page).
		d.storePage(page, data)
		if d.AwaitPage == page {
			d.AwaitPage = -1
		}
	} else {
		d.Outbox = append(d.Outbox, outMsg{
			To:  req,
			Msg: dsmMsg{Type: msgGrant, Page: page, Data: data},
			own: own,
		})
	}
	d.pump(page)
}

// lockGrant (manager only) hands lock id to req.
func (d *dsm) lockGrant(id, req int) {
	d.LockOwner[id] = req
	if req == d.Me {
		d.HeldLocks[id] = true
		d.LockWaiting = false
		return
	}
	d.Outbox = append(d.Outbox, outMsg{
		To:  req,
		Msg: dsmMsg{Type: msgLockGrant, Page: id},
	})
}

// AcquireLock requests lock id; the caller then waits for LockWaiting to
// clear.
func (d *dsm) AcquireLock(id int) {
	d.LockWaiting = true
	if d.Me == 0 {
		// Local fast path through the same manager logic.
		if err := d.Handle(dsmMsg{Type: msgLockAcq, Page: id, Requester: 0}); err != nil {
			panic(err)
		}
		return
	}
	d.Outbox = append(d.Outbox, outMsg{
		To:  0,
		Msg: dsmMsg{Type: msgLockAcq, Page: id, Requester: d.Me},
	})
}

// ReleaseLock gives lock id back to the manager.
func (d *dsm) ReleaseLock(id int) {
	delete(d.HeldLocks, id)
	if d.Me == 0 {
		if err := d.Handle(dsmMsg{Type: msgLockRel, Page: id, Requester: 0}); err != nil {
			panic(err)
		}
		return
	}
	d.Outbox = append(d.Outbox, outMsg{
		To:  0,
		Msg: dsmMsg{Type: msgLockRel, Page: id, Requester: d.Me},
	})
}

// EnterBarrier queues this process's arrival at the current barrier.
func (d *dsm) EnterBarrier() {
	d.BarrierWaiting = true
	if d.Me == 0 {
		d.BarrierCount++
		d.releaseBarrierIfReady()
		return
	}
	d.Outbox = append(d.Outbox, outMsg{
		To:  0,
		Msg: dsmMsg{Type: msgBEnter, Barrier: d.BarrierSeq},
	})
}

// releaseBarrierIfReady (coordinator only) releases everyone once all have
// arrived.
func (d *dsm) releaseBarrierIfReady() {
	if d.BarrierCount < d.NumProcs {
		return
	}
	d.BarrierCount = 0
	for p := 1; p < d.NumProcs; p++ {
		d.Outbox = append(d.Outbox, outMsg{
			To:  p,
			Msg: dsmMsg{Type: msgBRelease, Barrier: d.BarrierSeq},
		})
	}
	if d.BarrierWaiting {
		d.BarrierWaiting = false
		d.BarrierSeq++
	}
}

// marshal/unmarshal for checkpointing.
func (d *dsm) marshal(e *apputil.Enc) {
	e.Int(d.Me)
	e.Int(d.NumProcs)
	e.Int(d.NumPages)
	e.Int(len(d.Pages))
	for p := 0; p < d.NumPages; p++ {
		if data, ok := d.Pages[p]; ok {
			e.Int(p)
			e.Bytes(data)
		}
	}
	e.Int(len(d.Owner))
	for p := 0; p < d.NumPages; p++ {
		if o, ok := d.Owner[p]; ok {
			e.Int(p)
			e.Int(o)
		}
	}
	busy := 0
	for p := 0; p < d.NumPages; p++ {
		if d.Busy[p] {
			busy++
		}
	}
	e.Int(busy)
	for p := 0; p < d.NumPages; p++ {
		if d.Busy[p] {
			e.Int(p)
		}
	}
	queued := 0
	for p := 0; p < d.NumPages; p++ {
		if len(d.Queue[p]) > 0 {
			queued++
		}
	}
	e.Int(queued)
	for p := 0; p < d.NumPages; p++ {
		if q := d.Queue[p]; len(q) > 0 {
			e.Int(p)
			e.Int(len(q))
			for _, r := range q {
				e.Int(r)
			}
		}
	}
	e.Int(len(d.Outbox))
	for _, om := range d.Outbox {
		e.Int(om.To)
		e.Int(om.Msg.encodedLen()) // the queued message as a length-prefixed blob
		om.Msg.appendTo(e)
	}
	e.Int(d.AwaitPage)
	e.Int(d.BarrierSeq)
	e.Bool(d.BarrierWaiting)
	e.Int(d.BarrierCount)
	e.Bool(d.LockWaiting)
	held := d.keys[:0]
	for id := range d.HeldLocks {
		held = append(held, id)
	}
	sortInts(held)
	e.Int(len(held))
	for _, id := range held {
		e.Int(id)
	}
	owners := held[:0]
	for id := range d.LockOwner {
		owners = append(owners, id)
	}
	sortInts(owners)
	e.Int(len(owners))
	for _, id := range owners {
		e.Int(id)
		e.Int(d.LockOwner[id])
	}
	lockQueued := owners[:0]
	for id := range d.LockQueue {
		if len(d.LockQueue[id]) > 0 {
			lockQueued = append(lockQueued, id)
		}
	}
	sortInts(lockQueued)
	e.Int(len(lockQueued))
	for _, id := range lockQueued {
		e.Int(id)
		e.Int(len(d.LockQueue[id]))
		for _, r := range d.LockQueue[id] {
			e.Int(r)
		}
	}
	d.keys = lockQueued
	e.I64(d.Faults)
	e.I64(d.Transfers)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func unmarshalDSM(dec *apputil.Dec) (*dsm, error) {
	d := &dsm{
		Pages: make(map[int][]byte), Owner: make(map[int]int),
		Busy: make(map[int]bool), Queue: make(map[int][]int),
	}
	d.Me = dec.Int()
	d.NumProcs = dec.Int()
	d.NumPages = dec.Int()
	n := dec.Int()
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("treadmarks: implausible page count %d", n)
	}
	for i := 0; i < n; i++ {
		p := dec.Int()
		d.Pages[p] = dec.Bytes()
	}
	n = dec.Int()
	for i := 0; i < n; i++ {
		p := dec.Int()
		d.Owner[p] = dec.Int()
	}
	n = dec.Int()
	for i := 0; i < n; i++ {
		d.Busy[dec.Int()] = true
	}
	n = dec.Int()
	for i := 0; i < n; i++ {
		p := dec.Int()
		qn := dec.Int()
		if qn < 0 || qn > 1<<16 {
			return nil, fmt.Errorf("treadmarks: implausible queue length %d", qn)
		}
		q := make([]int, 0, qn)
		for j := 0; j < qn; j++ {
			q = append(q, dec.Int())
		}
		d.Queue[p] = q
	}
	n = dec.Int()
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("treadmarks: implausible outbox length %d", n)
	}
	for i := 0; i < n; i++ {
		to := dec.Int()
		// A copy, not a view: the checkpoint image is a buffer the
		// recovery layer reuses.
		m, err := decodeMsg(dec.Bytes())
		if err != nil {
			return nil, err
		}
		d.Outbox = append(d.Outbox, outMsg{To: to, Msg: m})
	}
	d.AwaitPage = dec.Int()
	d.BarrierSeq = dec.Int()
	d.BarrierWaiting = dec.Bool()
	d.BarrierCount = dec.Int()
	d.LockWaiting = dec.Bool()
	d.HeldLocks = make(map[int]bool)
	n = dec.Int()
	for i := 0; i < n; i++ {
		d.HeldLocks[dec.Int()] = true
	}
	d.LockOwner = make(map[int]int)
	n = dec.Int()
	for i := 0; i < n; i++ {
		id := dec.Int()
		d.LockOwner[id] = dec.Int()
	}
	d.LockQueue = make(map[int][]int)
	n = dec.Int()
	for i := 0; i < n; i++ {
		id := dec.Int()
		qn := dec.Int()
		if qn < 0 || qn > 1<<16 {
			return nil, fmt.Errorf("treadmarks: implausible lock queue %d", qn)
		}
		q := make([]int, 0, qn)
		for j := 0; j < qn; j++ {
			q = append(q, dec.Int())
		}
		d.LockQueue[id] = q
	}
	d.Faults = dec.I64()
	d.Transfers = dec.I64()
	return d, dec.Err
}
