package postgres

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/kernel"
	"failtrans/internal/sim"
)

// Phases of the query cycle.
const (
	phaseOpen = iota
	phaseRead
	phaseApply
	phaseRender
	phaseDone
)

// checkEveryOps is how often the engine runs its full consistency check.
const checkEveryOps = 40

// DB is the postgres application: index + buffer pool + query driver.
//
// A fork shares its frozen template's cached pages and index nodes
// (DB.Freeze, DB.Fork) and copies a page or node out on its first write to
// it (Pool.own, node.own).
type DB struct {
	Index *BTree
	Pool  *Pool
	// CurPage is the current insertion target.
	CurPage uint32
	// HavePage notes whether CurPage is valid yet.
	HavePage bool

	Phase int
	// Cmd is the command being applied, read where it lies: a view of the
	// input Ctx.Input returned (the immutable script, or a replay log's
	// record, whose written bytes never move) or, after a restore, of
	// cmdBuf. Nothing writes through it.
	Cmd []byte
	// LastMsg is the reply the next render shows: a capacity-clamped view of
	// reply, or, in a fork that has not replied yet, of its frozen
	// template's. Nothing writes through it.
	LastMsg []byte
	Ops     int

	File    string
	OpCost  time.Duration
	PoolCap int

	faultSalt uint64

	// Scratch, never marshaled and never handed to a fork: tuple is the
	// tuple insert and update build, hits the index entries a scan or a
	// count visits, reply the buffer replies are built in (LastMsg views
	// it), and cmdBuf the buffer a restore decodes Cmd into. A fork starts without them, so
	// neither it nor its template ever writes bytes the other can see.
	tuple  []byte
	hits   []hit
	reply  []byte
	cmdBuf []byte
}

// hit is one index entry a scan visits.
type hit struct {
	key int64
	rid RID
}

// New returns a database storing its heap in `file`.
func New(file string) *DB {
	return &DB{
		Index:   NewBTree(),
		Pool:    NewPool(8),
		File:    file,
		OpCost:  300 * time.Microsecond,
		PoolCap: 8,
	}
}

// Script converts textual queries (one per input) into the input script.
// Grammar:
//
//	insert <key> <value>
//	select <key>
//	update <key> <value>
//	delete <key>
//	scan <lo> <hi>
//	count <lo> <hi>
//	check
//	flush
//	vacuum
//	quit
func Script(queries []string) [][]byte {
	out := make([][]byte, 0, len(queries))
	for _, q := range queries {
		out = append(out, []byte(q))
	}
	return out
}

// Name implements sim.Program.
func (db *DB) Name() string { return "postgres" }

// Init implements sim.Program.
func (db *DB) Init(ctx *sim.Ctx) error {
	db.Pool.Cap = db.PoolCap
	return nil
}

// Step implements sim.Program.
//
//failtrans:hotpath
func (db *DB) Step(ctx *sim.Ctx) sim.Status {
	switch db.Phase {
	case phaseOpen:
		//failtrans:alloc once per process: the open that starts the session
		return db.open(ctx)
	case phaseRead:
		in, ok := ctx.Input()
		if !ok {
			db.Phase = phaseDone
			return sim.Ready
		}
		db.Cmd = in
		db.Ops++
		db.Phase = phaseApply
		return sim.Ready
	case phaseApply:
		ctx.Compute(db.OpCost)
		db.apply(ctx)
		if db.Ops%checkEveryOps == 0 {
			//failtrans:alloc the periodic full check, once per checkEveryOps commands: its recursive index walk is a closure, and a violation is reported through fmt
			db.runCheck(ctx)
		}
		return sim.Ready
	case phaseRender:
		ctx.OutputBytes(db.LastMsg)
		db.Phase = phaseRead
		return sim.Ready
	default:
		return sim.Done
	}
}

// open opens the heap file and moves on to the first command.
func (db *DB) open(ctx *sim.Ctx) sim.Status {
	ret, err := ctx.Syscall("open", []byte(db.File), []byte{1})
	if err != nil {
		ctx.Crash("postgres: " + err.Error())
		return sim.Crashed
	}
	db.Pool.FD = kernel.Int(ret[0])
	db.Phase = phaseRead
	return sim.Ready
}

// CheckConsistency implements sim.Checker: validate the index invariants
// and the checksums of every cached page.
func (db *DB) CheckConsistency() error {
	if err := db.Index.Check(); err != nil {
		return err
	}
	return db.Pool.CheckCached()
}

// runCheck validates the engine, crashing on corruption.
func (db *DB) runCheck(ctx *sim.Ctx) {
	if err := db.CheckConsistency(); err != nil {
		ctx.Crash(err.Error())
	}
}

func (db *DB) apply(ctx *sim.Ctx) {
	db.Phase = phaseRead
	op, rest := apputil.NextField(db.Cmd)
	if len(op) == 0 {
		return
	}
	arg1, rest := apputil.NextField(rest)
	arg2, _ := apputil.NextField(rest)
	kind := ctx.Fault("pg.op")
	key := apputil.ParseInt(arg1)
	if kind == sim.StackBitFlip {
		key ^= 1 << (db.salt() % 16) // the parsed key flips in flight
	}
	//failtrans:alloc none: a string(op) switch tag is compiler-recognized and aliases op
	switch string(op) {
	case "insert":
		db.insert(ctx, key, arg2, kind)
	case "select":
		db.query(ctx, key)
	case "update":
		db.update(ctx, key, arg2)
	case "delete":
		db.del(ctx, key)
	case "scan":
		db.scan(ctx, key, apputil.ParseInt(arg2))
	case "count":
		hi := apputil.ParseInt(arg2)
		db.hits = db.Index.appendRange(db.hits[:0], key, hi)
		db.reply = appendRangeReply(db.reply[:0], "count [", key, hi, int64(len(db.hits)))
		db.showReply()
	case "check":
		//failtrans:alloc the full check on request: its recursive index walk is a closure, and a violation is reported through fmt
		db.runCheck(ctx)
	case "flush":
		if err := db.Pool.FlushAll(ctx); err != nil {
			ctx.Crash(err.Error())
		}
	case "vacuum":
		//failtrans:alloc vacuum is a maintenance command: it regroups the whole index once
		n, err := db.vacuum(ctx)
		if err != nil {
			ctx.Crash(err.Error())
			return
		}
		db.reply = append(db.reply[:0], "vacuum: reclaimed "...)
		db.reply = strconv.AppendInt(db.reply, int64(n), 10)
		db.reply = append(db.reply, " dead slots"...)
		db.showReply()
	case "quit":
		db.Phase = phaseDone
	default:
		db.reply = append(db.reply[:0], "?cmd "...)
		db.reply = append(db.reply, op...)
		db.showReply()
	}
}

// showReply makes the reply just built in the reply scratch the one the
// next render shows.
func (db *DB) showReply() {
	db.LastMsg = db.reply[:len(db.reply):len(db.reply)]
	db.Phase = phaseRender
}

// appendRangeReply appends the reply of a range command, in the format
// fmt.Sprintf("%s%d,%d]: %d", head, lo, hi, n).
func appendRangeReply(b []byte, head string, lo, hi, n int64) []byte {
	b = append(b, head...)
	b = strconv.AppendInt(b, lo, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, hi, 10)
	b = append(b, "]: "...)
	return strconv.AppendInt(b, n, 10)
}

// appendKeyed appends the head of a keyed reply, fmt.Sprintf("%s %d: ",
// op, key).
func appendKeyed(b []byte, op string, key int64) []byte {
	b = append(b, op...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, key, 10)
	return append(b, ": "...)
}

// appendHex8 appends v as fmt's %08x does: eight lower-case hex digits.
func appendHex8(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// insert adds a tuple to the heap and the index.
func (db *DB) insert(ctx *sim.Ctx, key int64, value []byte, kind sim.FaultKind) {
	tuple := appendTuple(db.tuple[:0], key, value)
	db.tuple = tuple
	switch kind {
	case sim.OffByOne:
		// The slot bookkeeping will point one byte into the tuple.
		defer db.offByOneLastRID()
	case sim.HeapBitFlip:
		db.flipCachedPageBit()
	case sim.InitFault:
		tuple = tuple[:10] // the value bytes are never initialized... and length says otherwise
		tuple[8] = 0xff    // length field left as garbage
	case sim.DestReg:
		key = int64(uint16(key)) << 16 // the computed key lands shifted in the wrong register
	case sim.DeleteInstr:
		// The heap-insert instruction is skipped but the bookkeeping
		// still runs: the index points at a slot that was never
		// written.
		p, err := db.targetPage(ctx, len(tuple))
		if err != nil {
			return
		}
		db.Index.Put(key, RID{Page: p.ID(), Slot: uint16(p.NSlots())})
		return
	case sim.DeleteBranch:
		// The free-space validation branch is gone: the upper
		// boundary drifts, so the next tuples overwrite earlier ones.
		if db.HavePage {
			if p, err := db.Pool.getOwned(ctx, db.CurPage); err == nil {
				p.setUpper(p.upper() + 64)
				p.Dirty = true
				p.UpdateCRC()
			}
		}
	}
	if _, err := db.targetPage(ctx, len(tuple)); err != nil {
		ctx.Crash(err.Error())
		return
	}
	p := db.Pool.own(db.CurPage)
	slot, err := p.Insert(tuple)
	if err != nil {
		ctx.Crash(err.Error())
		return
	}
	db.Index.Put(key, RID{Page: p.ID(), Slot: uint16(slot)})
}

// targetPage returns the current insertion page, page CurPage, allocating a
// fresh one when the tuple does not fit. It only reads the page: a caller
// that writes it owns it first.
func (db *DB) targetPage(ctx *sim.Ctx, need int) (*Page, error) {
	if db.HavePage {
		p, err := db.Pool.Get(ctx, db.CurPage)
		if err != nil {
			return nil, err
		}
		if p.FreeSpace() >= need {
			return p, nil
		}
	}
	p, err := db.Pool.Alloc(ctx)
	if err != nil {
		return nil, err
	}
	db.CurPage = p.ID()
	db.HavePage = true
	return p, nil
}

// query executes a SELECT: index lookup, heap fetch, key verification,
// visible result.
func (db *DB) query(ctx *sim.Ctx, key int64) {
	rid, ok := db.Index.Get(key)
	if !ok {
		db.reply = appendKeyed(db.reply[:0], "select", key)
		db.reply = append(db.reply, "not found"...)
		db.showReply()
		return
	}
	p, err := db.Pool.Get(ctx, rid.Page)
	if err != nil {
		return // Get crashed or errored
	}
	raw, err := p.Read(int(rid.Slot))
	if err != nil {
		ctx.Crash(err.Error())
		return
	}
	if raw == nil {
		//failtrans:alloc cold error path: an index entry for a deleted tuple crashes the step
		ctx.Crash(fmt.Sprintf("postgres: index points to deleted tuple %d/%d", rid.Page, rid.Slot))
		return
	}
	k, v, err := DecodeTuple(raw)
	if err != nil {
		ctx.Crash(err.Error())
		return
	}
	if k != key {
		//failtrans:alloc cold error path: a tuple that disagrees with its index entry crashes the step
		ctx.Crash(fmt.Sprintf("postgres: tuple key %d != index key %d", k, key))
		return
	}
	db.reply = appendKeyed(db.reply[:0], "select", key)
	db.reply = append(db.reply, v...)
	db.showReply()
}

func (db *DB) update(ctx *sim.Ctx, key int64, value []byte) {
	rid, ok := db.Index.Get(key)
	if !ok {
		db.reply = appendKeyed(db.reply[:0], "update", key)
		db.reply = append(db.reply, "not found"...)
		db.showReply()
		return
	}
	p, err := db.Pool.getOwned(ctx, rid.Page)
	if err != nil {
		return
	}
	db.tuple = appendTuple(db.tuple[:0], key, value)
	ok, err = p.Overwrite(int(rid.Slot), db.tuple)
	if err != nil {
		ctx.Crash(err.Error())
		return
	}
	if !ok {
		// Does not fit in place: delete and re-insert.
		if err := p.Delete(int(rid.Slot)); err != nil {
			ctx.Crash(err.Error())
			return
		}
		db.insert(ctx, key, value, sim.NoFault)
	}
}

func (db *DB) del(ctx *sim.Ctx, key int64) {
	rid, ok := db.Index.Get(key)
	if !ok {
		return
	}
	p, err := db.Pool.getOwned(ctx, rid.Page)
	if err != nil {
		return
	}
	if err := p.Delete(int(rid.Slot)); err != nil {
		ctx.Crash(err.Error())
		return
	}
	db.Index.Delete(key)
}

// scan outputs the number of tuples and a value checksum over [lo,hi],
// verifying every heap tuple against its index key.
func (db *DB) scan(ctx *sim.Ctx, lo, hi int64) {
	db.hits = db.Index.appendRange(db.hits[:0], lo, hi)
	count := 0
	var sum uint32
	for _, h := range db.hits {
		p, err := db.Pool.Get(ctx, h.rid.Page)
		if err != nil {
			return
		}
		raw, err := p.Read(int(h.rid.Slot))
		if err != nil {
			ctx.Crash(err.Error())
			return
		}
		if raw == nil {
			continue
		}
		k, _, err := DecodeTuple(raw)
		if err != nil {
			ctx.Crash(err.Error())
			return
		}
		if k != h.key {
			//failtrans:alloc cold error path: a tuple that disagrees with its index entry crashes the step
			ctx.Crash(fmt.Sprintf("postgres: scan tuple key %d != index key %d", k, h.key))
			return
		}
		count++
		sum ^= apputil.Checksum(raw)
	}
	db.reply = appendRangeReply(db.reply[:0], "scan [", lo, hi, int64(count))
	db.reply = append(db.reply, " tuples sum="...)
	db.reply = appendHex8(db.reply, sum)
	db.showReply()
}

// flipCachedPageBit corrupts a cached page's tuple area without touching
// its checksum — latent until the next pool check or disk round trip.
func (db *DB) flipCachedPageBit() {
	s := db.salt()
	if len(db.Pool.lru) == 0 {
		return
	}
	id := db.Pool.lru[int(s)%len(db.Pool.lru)]
	p := db.Pool.own(id)
	// Flip within the tuple data area to avoid trivially breaking the
	// header.
	p.flipBit(headerLen*8 + s%(uint64(PageSize-headerLen)*8))
}

// offByOneLastRID nudges the most recently inserted index entry's slot by
// one — the classic fencepost in slot arithmetic.
func (db *DB) offByOneLastRID() {
	if db.Index.Len() == 0 {
		return
	}
	// Bump the rightmost leaf's last RID's slot.
	n := db.Index.ownLeaf(math.MaxInt64)
	n.mustMutable()
	if len(n.RIDs) > 0 {
		n.RIDs[len(n.RIDs)-1].Slot++
	}
}

func (db *DB) salt() uint64 {
	db.faultSalt = db.faultSalt*6364136223846793005 + 1442695040888963407
	return db.faultSalt
}

// MarshalState implements sim.Program.
func (db *DB) MarshalState() ([]byte, error) { return db.AppendState(nil) }

// AppendState implements sim.StateAppender: the commit path encodes the
// database straight into the checkpoint image. It only reads the receiver.
func (db *DB) AppendState(dst []byte) ([]byte, error) {
	e := &apputil.Enc{B: dst}
	db.Index.Marshal(e)
	db.Pool.Marshal(e)
	e.I64(int64(db.CurPage))
	e.Bool(db.HavePage)
	e.Int(db.Phase)
	e.Bytes(db.Cmd)
	e.Bytes(db.LastMsg)
	e.Int(db.Ops)
	e.Str(db.File)
	e.I64(int64(db.OpCost))
	e.Int(db.PoolCap)
	e.I64(int64(db.faultSalt))
	return e.B, nil
}

// Freeze implements sim.Freezer: it seals the cached pages and the index
// nodes as an immutable fork template. Idempotent, and a second call writes
// nothing, so a sealed database may be forked from many goroutines at once.
func (db *DB) Freeze() {
	db.Pool.seal()
	db.Index.seal()
}

// Fork implements sim.Forker: it seals the database with Freeze and returns
// a fork that copies the DB struct, the index header, the pool's page map
// and its LRU list. The fork shares the template's pages and index nodes
// until its first write to each (Pool.own, node.own); scratch is not handed
// on.
func (db *DB) Fork() (sim.Program, error) {
	db.Freeze()
	nd := *db
	nd.Index = db.Index.fork()
	nd.Pool = db.Pool.fork()
	nd.tuple, nd.hits, nd.reply, nd.cmdBuf = nil, nil, nil, nil
	return &nd, nil
}

// UnmarshalState implements sim.Program. The index and pool it decodes are
// fresh and the pool unsealed, so a restored fork shares nothing with its
// template.
func (db *DB) UnmarshalState(data []byte) error {
	d := apputil.Dec{B: data}
	idx, err := UnmarshalBTree(&d)
	if err != nil {
		return err
	}
	pool, err := UnmarshalPool(&d)
	if err != nil {
		return err
	}
	db.Index = idx
	db.Pool = pool
	db.CurPage = uint32(d.I64())
	db.HavePage = d.Bool()
	db.Phase = d.Int()
	db.cmdBuf = d.BytesInto(db.cmdBuf[:0])
	db.Cmd = db.cmdBuf[:len(db.cmdBuf):len(db.cmdBuf)]
	db.reply = d.BytesInto(db.reply[:0])
	db.LastMsg = db.reply[:len(db.reply):len(db.reply)]
	db.Ops = d.Int()
	db.File = d.Str()
	db.OpCost = time.Duration(d.I64())
	db.PoolCap = d.Int()
	db.faultSalt = uint64(d.I64())
	return d.Err
}

// vacuum compacts every heap page and rewrites the index entries whose
// slots moved. It returns the number of slots reclaimed.
func (db *DB) vacuum(ctx *sim.Ctx) (int, error) {
	// Group live index entries by page.
	db.hits = db.Index.appendRange(db.hits[:0], math.MinInt64, math.MaxInt64)
	byPage := make(map[uint32][]hit)
	for _, h := range db.hits {
		byPage[h.rid.Page] = append(byPage[h.rid.Page], h)
	}
	reclaimed := 0
	for pid := uint32(0); pid < db.Pool.NumPages; pid++ {
		p, err := db.Pool.getOwned(ctx, pid)
		if err != nil {
			return reclaimed, err
		}
		before := p.NSlots()
		remap, err := p.Compact()
		if err != nil {
			return reclaimed, err
		}
		reclaimed += before - p.NSlots()
		for _, ent := range byPage[pid] {
			newSlot, ok := remap[ent.rid.Slot]
			if !ok {
				return reclaimed, fmt.Errorf("postgres: vacuum lost tuple for key %d (page %d slot %d)", ent.key, pid, ent.rid.Slot)
			}
			db.Index.Put(ent.key, RID{Page: pid, Slot: newSlot})
		}
		ctx.Compute(100 * time.Microsecond)
	}
	return reclaimed, nil
}
