package postgres

import (
	"fmt"
	"maps"
	"slices"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/kernel"
	"failtrans/internal/sim"
)

// Pool is the LRU buffer pool: it caches heap pages and moves them to and
// from the table file with kernel syscalls (deterministic, so they may
// batch within a step). A fork's pool shares its template's sealed pages:
// fork copies only the page map and the LRU list, and own copies a sealed
// page out before the fork's first write to it.
type Pool struct {
	Cap      int
	FD       int64
	NumPages uint32

	pages map[uint32]*Page
	lru   []uint32 // most recent last

	// Misses / Evictions / Reads / Writes count I/O activity.
	Misses    int64
	Evictions int64

	// words is the page I/O's syscall scratch, never marshaled: the fd and
	// an offset or length as syscall words (kernel.AppendI64), so a page
	// read or write-back allocates no argument words.
	words [16]byte
}

// NewPool returns a pool of the given capacity (pages).
func NewPool(capacity int) *Pool {
	return &Pool{Cap: capacity, pages: make(map[uint32]*Page)}
}

func (bp *Pool) touch(id uint32) {
	for i, v := range bp.lru {
		if v == id {
			bp.lru = append(bp.lru[:i], bp.lru[i+1:]...)
			break
		}
	}
	bp.lru = append(bp.lru, id)
}

// own returns cached page id, copying it out first when it is sealed into a
// fork template: every write to a cached page goes through here.
func (bp *Pool) own(id uint32) *Page {
	p := bp.pages[id]
	if !p.sealed {
		return p
	}
	//failtrans:alloc one page per page a fork dirties, once: the copy-on-write cost of a shared page
	np := &Page{Data: p.Data, Dirty: p.Dirty, crcOK: p.crcOK}
	bp.pages[id] = np
	return np
}

// getOwned is Get for a caller about to write the page: it owns it first.
func (bp *Pool) getOwned(ctx *sim.Ctx, id uint32) (*Page, error) {
	if _, err := bp.Get(ctx, id); err != nil {
		return nil, err
	}
	return bp.own(id), nil
}

// seal marks every cached page immutable (DB.Freeze). Pages already sealed
// are only read, so sealing a fork's pool writes none of its template's.
func (bp *Pool) seal() {
	for _, p := range bp.pages {
		if !p.sealed {
			p.sealed = true
		}
	}
}

// fork returns a pool that shares bp's pages, which seal has made
// immutable: only the page map and the LRU list are copied.
func (bp *Pool) fork() *Pool {
	np := *bp
	np.pages = maps.Clone(bp.pages)
	np.lru = slices.Clone(bp.lru)
	return &np
}

// Alloc formats a fresh page at the end of the file and caches it.
func (bp *Pool) Alloc(ctx *sim.Ctx) (*Page, error) {
	id := bp.NumPages
	bp.NumPages++
	p := NewPage(id)
	p.Dirty = true
	if err := bp.install(ctx, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Get returns page id, reading it from disk on a miss. Pages read from
// disk have their checksums verified; a mismatch crashes the process (the
// storage engine's fail-fast detection).
func (bp *Pool) Get(ctx *sim.Ctx, id uint32) (*Page, error) {
	if p, ok := bp.pages[id]; ok {
		bp.touch(id)
		return p, nil
	}
	bp.Misses++
	if _, err := ctx.Syscall("lseek", bp.fdWord(), bp.word(int64(id)*PageSize)); err != nil {
		return nil, err
	}
	ret, err := ctx.Syscall("read", bp.fdWord(), bp.word(PageSize))
	if err != nil {
		return nil, err
	}
	if len(ret[0]) != PageSize {
		//failtrans:alloc cold error path: a short read crashes the step
		return nil, fmt.Errorf("postgres: short page read (%d bytes) for page %d", len(ret[0]), id)
	}
	//failtrans:alloc a cache miss: one page per page read from disk
	p := &Page{}
	copy(p.Data[:], ret[0])
	if !p.VerifyCRC() || p.ID() != id {
		//failtrans:alloc cold error path: a page that fails its checksum crashes the process
		ctx.Crash(fmt.Sprintf("postgres: page %d failed checksum on read", id))
		//failtrans:alloc cold error path: a page that fails its checksum crashes the process
		return nil, fmt.Errorf("postgres: page %d corrupt", id)
	}
	p.crcOK = true
	if err := bp.install(ctx, p); err != nil {
		return nil, err
	}
	return p, nil
}

// install caches p, evicting (with write-back) if full. An evicted page
// leaves the pool, so its dirty bit is left as it is.
func (bp *Pool) install(ctx *sim.Ctx, p *Page) error {
	for len(bp.pages) >= bp.Cap {
		victim := bp.lru[0]
		bp.lru = bp.lru[1:]
		vp := bp.pages[victim]
		delete(bp.pages, victim)
		bp.Evictions++
		if vp.Dirty {
			if err := bp.writeBack(ctx, vp); err != nil {
				return err
			}
		}
	}
	bp.pages[p.ID()] = p
	bp.touch(p.ID())
	return nil
}

func (bp *Pool) writeBack(ctx *sim.Ctx, p *Page) error {
	if _, err := ctx.Syscall("lseek", bp.fdWord(), bp.word(int64(p.ID())*PageSize)); err != nil {
		return err
	}
	_, err := ctx.Syscall("write", bp.fdWord(), p.Data[:])
	return err
}

// fdWord returns the pool's fd as a syscall word, in the first half of its
// syscall scratch.
func (bp *Pool) fdWord() []byte { return kernel.AppendI64(bp.words[:0:8], bp.FD) }

// word returns v as a syscall word, in the second half of the pool's
// syscall scratch.
func (bp *Pool) word(v int64) []byte { return kernel.AppendI64(bp.words[8:8], v) }

// FlushAll writes back every dirty cached page and clears its dirty bit.
func (bp *Pool) FlushAll(ctx *sim.Ctx) error {
	for _, id := range bp.lru {
		p := bp.pages[id]
		if p != nil && p.Dirty {
			if err := bp.writeBack(ctx, p); err != nil {
				return err
			}
			bp.own(id).Dirty = false
		}
	}
	return nil
}

// CheckCached verifies the checksums of every cached page, least recently
// used first, so the error names the same page on every run.
func (bp *Pool) CheckCached() error {
	for _, id := range bp.lru {
		if !bp.pages[id].VerifyCRC() {
			return fmt.Errorf("postgres: cached page %d checksum mismatch", id)
		}
	}
	return nil
}

// Marshal serializes pool state including cached page images.
func (bp *Pool) Marshal(e *apputil.Enc) {
	e.Int(bp.Cap)
	e.I64(bp.FD)
	e.I64(int64(bp.NumPages))
	e.Int(len(bp.lru))
	for _, id := range bp.lru {
		e.I64(int64(id))
		p := bp.pages[id]
		e.Bool(p.Dirty)
		e.Bytes(p.Data[:])
	}
}

// UnmarshalPool reverses Marshal. A cached-page count the rest of the input
// cannot hold fails before anything is allocated.
func UnmarshalPool(d *apputil.Dec) (*Pool, error) {
	capacity, fd, numPages := d.Int(), d.I64(), uint32(d.I64())
	// A cached page is its id, its dirty flag, its length word and its image.
	n := d.Count(8 + 1 + 8 + PageSize)
	if d.Err != nil {
		return nil, d.Err
	}
	bp := &Pool{Cap: capacity, FD: fd, NumPages: numPages, pages: make(map[uint32]*Page)}
	for range n {
		id := uint32(d.I64())
		p := &Page{Dirty: d.Bool()}
		img := d.BytesInto(p.Data[:0])
		if d.Err != nil {
			return nil, d.Err
		}
		if len(img) != PageSize {
			return nil, fmt.Errorf("postgres: cached page %d has %d bytes", id, len(img))
		}
		bp.pages[id] = p
		bp.lru = append(bp.lru, id)
	}
	return bp, d.Err
}
