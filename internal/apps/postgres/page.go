// Package postgres reimplements the paper's fault-study database workload:
// a small relational storage engine in the style of PostgreSQL's storage
// layer — checksummed slotted heap pages on a simulated disk, an LRU buffer
// pool that reads and writes them through kernel syscalls, and a B-tree
// index from keys to record IDs — driven by a scripted query stream.
//
// SELECT and SCAN results are visible events; the query stream is fixed-ND
// user input; syscall traffic comes from buffer-pool misses and write-backs
// (an order of magnitude less than nvi's per-keystroke traffic, as the
// paper observes). Fault points in tuple insertion and page management
// implement the seven Table 1 fault types.
package postgres

import (
	"encoding/binary"
	"fmt"

	"failtrans/internal/apps/apputil"
)

// PageSize is the heap page size (PostgreSQL's 8 KB).
const PageSize = 8192

// Page header layout (little endian):
//
//	[0:4)   page id
//	[4:6)   slot count
//	[6:8)   lower free boundary (end of slot array)
//	[8:10)  upper free boundary (start of tuple data)
//	[10:14) CRC32 over the rest of the page
const (
	offPageID = 0
	offNSlots = 4
	offLower  = 6
	offUpper  = 8
	offCRC    = 10
	headerLen = 14
	slotLen   = 4
)

// Page is one slotted heap page.
type Page struct {
	Data  [PageSize]byte
	Dirty bool

	// sealed marks a page cached by a frozen fork template (DB.Freeze):
	// the template and its forks share it, so it is immutable forever and
	// its mutators panic. A fork writes its own copy (Pool.own).
	sealed bool

	// crcOK trusts the stored checksum to match the contents, so a mutator
	// may patch it by the bytes it wrote (crcPatch). It is set by a full
	// recompute and a verified read, cleared by a write that bypasses the
	// mutators (flipBit, Compact), and never marshalled: a decoded page is
	// recomputed by its first mutator.
	crcOK bool
}

// mustMutable panics if the page is sealed into a fork template: writing it
// would corrupt the template and every fork taken from it.
func (p *Page) mustMutable() {
	if p.sealed {
		panic("postgres: mutation of a page sealed into a fork template")
	}
}

// NewPage formats an empty page with the given id.
func NewPage(id uint32) *Page {
	//failtrans:alloc a fresh heap page: one per PageSize bytes of tuples inserted
	p := &Page{}
	binary.LittleEndian.PutUint32(p.Data[offPageID:], id)
	p.setNSlots(0)
	p.setLower(headerLen)
	p.setUpper(PageSize)
	p.UpdateCRC()
	return p
}

// ID returns the page id.
func (p *Page) ID() uint32 { return binary.LittleEndian.Uint32(p.Data[offPageID:]) }

// maxSlots is the most slot entries that physically fit on a page.
const maxSlots = (PageSize - headerLen) / slotLen

// NSlots returns the slot count, bounded by what can physically fit — a
// corrupted header must not send readers outside the page.
func (p *Page) NSlots() int {
	n := int(binary.LittleEndian.Uint16(p.Data[offNSlots:]))
	if n > maxSlots {
		return maxSlots
	}
	return n
}

func (p *Page) setNSlots(n int) { binary.LittleEndian.PutUint16(p.Data[offNSlots:], uint16(n)) }

func (p *Page) lower() int     { return int(binary.LittleEndian.Uint16(p.Data[offLower:])) }
func (p *Page) setLower(v int) { binary.LittleEndian.PutUint16(p.Data[offLower:], uint16(v)) }
func (p *Page) upper() int     { return int(binary.LittleEndian.Uint16(p.Data[offUpper:])) }
func (p *Page) setUpper(v int) {
	p.mustMutable()
	binary.LittleEndian.PutUint16(p.Data[offUpper:], uint16(v))
}

// FreeSpace returns the bytes available for one more tuple (including its
// slot entry).
func (p *Page) FreeSpace() int {
	free := p.upper() - p.lower() - slotLen
	if free < 0 {
		return 0
	}
	return free
}

// slot returns the offset/length of slot i (zeros for a slot outside the
// physical slot area).
func (p *Page) slot(i int) (off, ln int) {
	base := headerLen + i*slotLen
	if i < 0 || base+slotLen > PageSize {
		return 0, 0
	}
	return int(binary.LittleEndian.Uint16(p.Data[base:])), int(binary.LittleEndian.Uint16(p.Data[base+2:]))
}

func (p *Page) setSlot(i, off, ln int) {
	base := headerLen + i*slotLen
	binary.LittleEndian.PutUint16(p.Data[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.Data[base+2:], uint16(ln))
}

// Insert places a tuple on the page and returns its slot number.
//
//failtrans:hotpath
func (p *Page) Insert(tuple []byte) (int, error) {
	p.mustMutable()
	if len(tuple) > p.FreeSpace() {
		//failtrans:alloc cold: callers check FreeSpace first, so a full page is corruption and crashes the step
		return 0, fmt.Errorf("postgres: page %d full (%d free, %d needed)", p.ID(), p.FreeSpace(), len(tuple))
	}
	slot := p.NSlots()
	off := p.upper() - len(tuple)
	c := p.patchCRC()
	c.before(p, off, off+len(tuple))
	copy(p.Data[off:], tuple)
	c.after(p)
	base := headerLen + slot*slotLen
	c.before(p, base, base+slotLen)
	p.setSlot(slot, off, len(tuple))
	c.after(p)
	c.before(p, offNSlots, offCRC)
	p.setNSlots(slot + 1)
	p.setLower(headerLen + (slot+1)*slotLen)
	p.setUpper(off)
	c.after(p)
	p.Dirty = true
	c.store(p)
	return slot, nil
}

// Read returns the tuple in slot i (nil if deleted) as a capacity-clamped
// view of the page: it is valid only until the page's next write.
func (p *Page) Read(i int) ([]byte, error) {
	if i < 0 || i >= p.NSlots() {
		//failtrans:alloc cold error path: a bad slot number is a corrupt index: the caller crashes
		return nil, fmt.Errorf("postgres: page %d slot %d out of range (%d slots)", p.ID(), i, p.NSlots())
	}
	off, ln := p.slot(i)
	if ln == 0 {
		return nil, nil // deleted
	}
	if off < headerLen || off+ln > PageSize {
		//failtrans:alloc cold error path: a slot pointing off the page is a corrupt page: the caller crashes
		return nil, fmt.Errorf("postgres: page %d slot %d points outside page (%d+%d)", p.ID(), i, off, ln)
	}
	return p.Data[off : off+ln : off+ln], nil
}

// Delete marks slot i dead (space is not reclaimed; VACUUM is out of
// scope).
//
//failtrans:hotpath
func (p *Page) Delete(i int) error {
	p.mustMutable()
	if i < 0 || i >= p.NSlots() {
		//failtrans:alloc a bad slot number is a corrupt index: the caller crashes
		return fmt.Errorf("postgres: delete slot %d out of range", i)
	}
	off, _ := p.slot(i)
	c := p.patchCRC()
	base := headerLen + i*slotLen
	c.before(p, base, base+slotLen)
	p.setSlot(i, off, 0)
	c.after(p)
	p.Dirty = true
	c.store(p)
	return nil
}

// Overwrite replaces the tuple in slot i in place when the new tuple fits
// the old length; otherwise it reports false and the caller re-inserts.
//
//failtrans:hotpath
func (p *Page) Overwrite(i int, tuple []byte) (bool, error) {
	p.mustMutable()
	if i < 0 || i >= p.NSlots() {
		//failtrans:alloc a bad slot number is a corrupt index: the caller crashes
		return false, fmt.Errorf("postgres: overwrite slot %d out of range", i)
	}
	off, ln := p.slot(i)
	if len(tuple) > ln {
		return false, nil
	}
	c := p.patchCRC()
	c.before(p, off, off+len(tuple))
	copy(p.Data[off:off+len(tuple)], tuple)
	c.after(p)
	base := headerLen + i*slotLen
	c.before(p, base, base+slotLen)
	p.setSlot(i, off, len(tuple))
	c.after(p)
	p.Dirty = true
	c.store(p)
	return true, nil
}

// UpdateCRC recomputes the page checksum and trusts it.
func (p *Page) UpdateCRC() {
	p.mustMutable()
	binary.LittleEndian.PutUint32(p.Data[offCRC:], p.computeCRC())
	p.crcOK = true
}

func (p *Page) computeCRC() uint32 {
	return apputil.Checksum(p.Data[:offCRC], p.Data[offCRC+4:])
}

// flipBit flips one bit of the page behind its mutators' back: the stored
// checksum no longer matches until a recompute blesses the flip or a
// verification catches it, so the page is no longer trusted.
func (p *Page) flipBit(bit uint64) {
	p.mustMutable()
	apputil.FlipBit(p.Data[:], bit)
	p.crcOK = false
}

// VerifyCRC reports whether the stored checksum matches the contents. It
// always recomputes: it is the check that catches what crcOK cannot see.
func (p *Page) VerifyCRC() bool {
	return binary.LittleEndian.Uint32(p.Data[offCRC:]) == p.computeCRC()
}

// Tuple codec: [key int64][len uint16][value].

// appendTuple serializes a key/value pair behind dst.
func appendTuple[V string | []byte](dst []byte, key int64, value V) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(key))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(value)))
	return append(dst, value...)
}

// DecodeTuple parses a serialized tuple. The value is a capacity-clamped
// view of t: when t is a Page.Read view, it is valid only until the page's
// next write.
func DecodeTuple(t []byte) (key int64, value []byte, err error) {
	if len(t) < 10 {
		//failtrans:alloc cold error path: a malformed tuple is a corrupt page: the caller crashes
		return 0, nil, fmt.Errorf("postgres: tuple too short (%d bytes)", len(t))
	}
	key = int64(binary.LittleEndian.Uint64(t[0:8]))
	n := int(binary.LittleEndian.Uint16(t[8:10]))
	if 10+n > len(t) {
		//failtrans:alloc cold error path: a malformed tuple is a corrupt page: the caller crashes
		return 0, nil, fmt.Errorf("postgres: tuple length %d overruns %d bytes", n, len(t))
	}
	return key, t[10 : 10+n : 10+n], nil
}

// Compact rewrites the page without its dead slots and tuples, reclaiming
// the space deletes left behind (VACUUM). It returns the slot renumbering
// (old slot -> new slot) so the caller can fix index entries. An error
// means the page was corrupt (its slots claim more bytes than fit).
func (p *Page) Compact() (map[uint16]uint16, error) {
	p.mustMutable()
	type live struct {
		oldSlot int
		data    []byte
	}
	var tuples []live
	for i := 0; i < p.NSlots(); i++ {
		off, ln := p.slot(i)
		if ln == 0 || off < headerLen || off+ln > PageSize {
			// Dead — or corrupt, which compaction must not chase
			// outside the page.
			continue
		}
		data := make([]byte, ln)
		copy(data, p.Data[off:off+ln])
		tuples = append(tuples, live{oldSlot: i, data: data})
	}
	// Re-initialize the page body behind the checksum's back.
	p.crcOK = false
	id := p.ID()
	for i := headerLen; i < PageSize; i++ {
		p.Data[i] = 0
	}
	binary.LittleEndian.PutUint32(p.Data[offPageID:], id)
	p.setNSlots(0)
	p.setLower(headerLen)
	p.setUpper(PageSize)
	remap := make(map[uint16]uint16, len(tuples))
	for _, t := range tuples {
		slot, err := p.Insert(t.data)
		if err != nil {
			// Valid pages always fit their own live tuples; this is
			// slot-directory corruption.
			return nil, fmt.Errorf("postgres: compaction overflow (corrupt slots): %w", err)
		}
		remap[uint16(t.oldSlot)] = uint16(slot)
	}
	p.Dirty = true
	p.UpdateCRC()
	return remap, nil
}
