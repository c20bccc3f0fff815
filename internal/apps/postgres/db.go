package postgres

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

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
// A fork shares its frozen template's cached pages and index (DB.Freeze,
// DB.Fork): it copies a page out on its first write to it (Pool.own) and
// clones the index on its first mutation (ownIndex).
type DB struct {
	// Index may be the sealed index of the template this database was
	// forked from; every mutation of it runs ownIndex first.
	//failtrans:cowshared ownIndex
	Index *BTree
	Pool  *Pool
	// CurPage is the current insertion target.
	CurPage uint32
	// HavePage notes whether CurPage is valid yet.
	HavePage bool

	Phase   int
	Cmd     string
	LastMsg string
	Ops     int

	File    string
	OpCost  time.Duration
	PoolCap int

	faultSalt uint64

	// Scratch, never marshaled and never handed to a fork: tuple is the
	// tuple insert and update build, hits the index entries scan visits.
	tuple []byte
	hits  []hit
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
func (db *DB) Step(ctx *sim.Ctx) sim.Status {
	switch db.Phase {
	case phaseOpen:
		ret, err := ctx.Syscall("open", []byte(db.File), []byte{1})
		if err != nil {
			ctx.Crash("postgres: " + err.Error())
			return sim.Crashed
		}
		db.Pool.FD = kernel.Int(ret[0])
		db.Phase = phaseRead
		return sim.Ready
	case phaseRead:
		in, ok := ctx.Input()
		if !ok {
			db.Phase = phaseDone
			return sim.Ready
		}
		db.Cmd = string(in)
		db.Ops++
		db.Phase = phaseApply
		return sim.Ready
	case phaseApply:
		ctx.Compute(db.OpCost)
		db.apply(ctx)
		if db.Ops%checkEveryOps == 0 {
			db.runCheck(ctx)
		}
		return sim.Ready
	case phaseRender:
		ctx.Output(db.LastMsg)
		db.Phase = phaseRead
		return sim.Ready
	default:
		return sim.Done
	}
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
	op, rest := nextField(db.Cmd)
	if op == "" {
		return
	}
	arg1, rest := nextField(rest)
	arg2, _ := nextField(rest)
	kind := ctx.Fault("pg.op")
	key := parseInt(arg1)
	if kind == sim.StackBitFlip {
		key ^= 1 << (db.salt() % 16) // the parsed key flips in flight
	}
	switch op {
	case "insert":
		db.insert(ctx, key, arg2, kind)
	case "select":
		db.query(ctx, key)
	case "update":
		db.update(ctx, key, arg2)
	case "delete":
		db.del(ctx, key)
	case "scan":
		db.scan(ctx, key, parseInt(arg2))
	case "count":
		hi := parseInt(arg2)
		n := 0
		db.Index.Scan(key, hi, func(int64, RID) bool { n++; return true })
		db.LastMsg = fmt.Sprintf("count [%d,%d]: %d", key, hi, n)
		db.Phase = phaseRender
	case "check":
		db.runCheck(ctx)
	case "flush":
		if err := db.Pool.FlushAll(ctx); err != nil {
			ctx.Crash(err.Error())
		}
	case "vacuum":
		n, err := db.vacuum(ctx)
		if err != nil {
			ctx.Crash(err.Error())
			return
		}
		db.LastMsg = fmt.Sprintf("vacuum: reclaimed %d dead slots", n)
		db.Phase = phaseRender
	case "quit":
		db.Phase = phaseDone
	default:
		db.LastMsg = "?cmd " + op
		db.Phase = phaseRender
	}
}

// nextField returns the first field of s and what follows it, splitting
// around runs of white space exactly as strings.Fields does; f is empty when
// s holds no field.
func nextField(s string) (f, rest string) {
	i := skipField(s, 0, true)
	j := skipField(s, i, false)
	return s[i:j], s[j:]
}

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipField returns the offset of the first rune at or after i that is not
// white space (space true) or that is (space false), as unicode.IsSpace
// classifies it; invalid UTF-8 is not space. ASCII bytes are classified
// without decoding.
func skipField(s string, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += n
	}
	return i
}

// parseInt parses a decimal query argument as strconv.ParseInt does,
// ignoring its error (an out-of-range value saturates); a missing argument
// is 0.
func parseInt(s string) int64 {
	if s == "" {
		return 0
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

// insert adds a tuple to the heap and the index.
func (db *DB) insert(ctx *sim.Ctx, key int64, value string, kind sim.FaultKind) {
	tuple := appendTuple(db.tuple[:0], key, value)
	db.tuple = tuple
	switch kind {
	case sim.OffByOne:
		// The slot bookkeeping will point one byte into the tuple.
		defer func() { db.offByOneLastRID() }()
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
		db.ownIndex()
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
	db.ownIndex()
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
		db.LastMsg = fmt.Sprintf("select %d: not found", key)
		db.Phase = phaseRender
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
		ctx.Crash(fmt.Sprintf("postgres: index points to deleted tuple %d/%d", rid.Page, rid.Slot))
		return
	}
	k, v, err := DecodeTuple(raw)
	if err != nil {
		ctx.Crash(err.Error())
		return
	}
	if k != key {
		ctx.Crash(fmt.Sprintf("postgres: tuple key %d != index key %d", k, key))
		return
	}
	db.LastMsg = fmt.Sprintf("select %d: %s", key, v)
	db.Phase = phaseRender
}

func (db *DB) update(ctx *sim.Ctx, key int64, value string) {
	rid, ok := db.Index.Get(key)
	if !ok {
		db.LastMsg = fmt.Sprintf("update %d: not found", key)
		db.Phase = phaseRender
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
	db.ownIndex()
	db.Index.Delete(key)
}

// scan outputs the number of tuples and a value checksum over [lo,hi],
// verifying every heap tuple against its index key.
func (db *DB) scan(ctx *sim.Ctx, lo, hi int64) {
	db.hits = db.hits[:0]
	db.Index.Scan(lo, hi, func(k int64, rid RID) bool {
		db.hits = append(db.hits, hit{k, rid})
		return true
	})
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
			ctx.Crash(fmt.Sprintf("postgres: scan tuple key %d != index key %d", k, h.key))
			return
		}
		count++
		sum ^= apputil.Checksum(raw)
	}
	db.LastMsg = fmt.Sprintf("scan [%d,%d]: %d tuples sum=%08x", lo, hi, count, sum)
	db.Phase = phaseRender
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
	db.ownIndex()
	// Walk to the rightmost leaf and bump its last RID's slot.
	n := db.Index.root
	for !n.Leaf {
		n = n.Children[len(n.Children)-1]
	}
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
	e.Str(db.Cmd)
	e.Str(db.LastMsg)
	e.Int(db.Ops)
	e.Str(db.File)
	e.I64(int64(db.OpCost))
	e.Int(db.PoolCap)
	e.I64(int64(db.faultSalt))
	return e.B, nil
}

// Freeze implements sim.Freezer: it seals the cached pages and the index as
// an immutable fork template. Idempotent, and a second call writes nothing,
// so a sealed database may be forked from many goroutines at once.
func (db *DB) Freeze() {
	//failtrans:cowok seal writes only an unsealed index, which is this database's own
	db.Index.seal()
	db.Pool.seal()
}

// Fork implements sim.Forker: it seals the database with Freeze and returns
// a copy-on-write fork that copies only the DB struct, the pool's page map
// and its LRU list. The fork shares the template's pages and index until
// its first write to each (Pool.own, ownIndex); scratch is not handed on.
func (db *DB) Fork() (sim.Program, error) {
	db.Freeze()
	nd := *db
	nd.Pool = db.Pool.fork()
	nd.tuple, nd.hits = nil, nil
	return &nd, nil
}

// ownIndex gives the database a private index before it mutates it: a fork
// shares its template's sealed index until then and clones it here.
func (db *DB) ownIndex() {
	if db.Index.sealed {
		db.Index = db.Index.clone()
	}
}

// UnmarshalState implements sim.Program. The index and pool it decodes are
// fresh and unsealed, so a restored fork shares nothing with its template.
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
	db.Cmd = d.Str()
	db.LastMsg = d.Str()
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
	byPage := make(map[uint32][]struct {
		key  int64
		slot uint16
	})
	db.Index.Scan(math.MinInt64, math.MaxInt64, func(k int64, rid RID) bool {
		byPage[rid.Page] = append(byPage[rid.Page], struct {
			key  int64
			slot uint16
		}{k, rid.Slot})
		return true
	})
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
			newSlot, ok := remap[ent.slot]
			if !ok {
				return reclaimed, fmt.Errorf("postgres: vacuum lost tuple for key %d (page %d slot %d)", ent.key, pid, ent.slot)
			}
			db.ownIndex()
			db.Index.Put(ent.key, RID{Page: pid, Slot: newSlot})
		}
		ctx.Compute(100 * time.Microsecond)
	}
	return reclaimed, nil
}
