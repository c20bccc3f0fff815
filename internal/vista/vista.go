// Package vista reimplements the mechanism of the Vista transaction library
// (Lowell & Chen, SOSP 1997) that Discount Checking is built on: a process
// maps its state into a segment of reliable memory; updates are trapped at
// page granularity (copy-on-write in the original, explicit Write calls
// here); before-images of updated pages go to a persistent undo log; and a
// commit atomically saves the register file, discards the undo log, and
// re-arms the write traps.
//
// Rolling back a process is applying the undo log in reverse; recovering
// after a crash is the same operation, because the undo log itself lives in
// reliable memory.
//
// The commit path does one compare-and-copy pass over the incoming image
// with zero steady-state heap allocations: each page is compared with the
// resident one (bytes.Equal stops at the first differing word, and nearly
// every page of a checkpoint image is dirty) and copied in place when it
// differs. The transactional API (Write/SetContents, then Commit or
// Rollback) keeps before-images in a pooled undo log and a reusable dirty
// bitset; CommitImage, the entry Discount Checking commits through, is the
// same walk with no undo log at all, because nothing can interrupt it.
//
// A segment also supports the same trick one level up, for the fault
// campaign engine that forks whole worlds off memoized clean prefixes:
// Freeze seals a segment as an immutable template, and Fork seals its receiver
// and returns a copy-on-write fork that shares the template's memory image. A
// fork privatizes a page into its private overlay on first write —
// exactly the Discount Checking first-touch trap, applied to the meta-level
// engine — so forking costs O(metadata), not O(state), and each fork pays
// only for the pages it actually changes.
package vista

import (
	"bytes"
	"fmt"

	"failtrans/internal/obs"
)

// DefaultPageSize matches the i386 page size the original used.
const DefaultPageSize = 4096

// Stats reports what a commit had to write.
type Stats struct {
	// Pages is the number of distinct pages dirtied since the previous
	// commit.
	Pages int
	// Bytes is the total payload a commit must persist: the dirtied
	// pages plus the register file.
	Bytes int
}

type undoRec struct {
	page int
	data []byte
	// borrowed marks a before-image that aliases memory the record does
	// not own — a frozen template's page (immutable, so the slice IS the
	// before-image) or an undo buffer inherited from the template at fork.
	// Borrowed buffers must never be released into the fork's pool.
	borrowed bool
}

// pageBitset tracks dirty pages as one bit per page. Bits are cleared in
// place at commit/rollback (walking the undo log, which names exactly the
// set bits) so the steady state allocates nothing.
type pageBitset []uint64

func (b pageBitset) has(p int) bool { return b[p>>6]&(1<<(uint(p)&63)) != 0 }
func (b pageBitset) set(p int)      { b[p>>6] |= 1 << (uint(p) & 63) }
func (b pageBitset) clear(p int)    { b[p>>6] &^= 1 << (uint(p) & 63) }

// Segment is one process's persistent address space plus its undo log.
// The zero value is not usable; call NewSegment.
type Segment struct {
	pageSize int
	// size is the logical extent in bytes. For an ordinary (flat) segment
	// len(mem) == size; a frozen template's mem is padded to a page
	// boundary beyond size, and a COW fork's mem is nil (its contents live
	// in overlay and base).
	size int
	// A frozen template's mem is read by every COW fork through base, so
	// writes must first prove the segment private: mustMutable panics on
	// a frozen template, and touchPage privatizes a fork's page into
	// overlay before the write lands.
	//failtrans:cowshared mustMutable,touchPage
	mem      []byte
	undo     []undoRec
	dirty    pageBitset
	nDirty   int
	savedReg []byte

	// frozen marks a sealed template: mutators panic, and forks share this
	// segment's memory. A frozen segment is immutable forever, so any number
	// of forks may read it concurrently without locking.
	frozen bool
	// base, when non-nil, is the frozen template this segment was COW-
	// forked from. Page contents are read overlay-first, then base; pages
	// past the base's extent (the fork grew) read as zeros until written.
	base *Segment
	// overlay holds the fork's privatized pages by page number (nil: the
	// page is still served from base): full pageSize buffers (drawn from
	// bufPool) whose logical tail beyond the extent is kept zeroed, so
	// growth re-exposes zeros exactly like flat memory does. It is
	// allocated at the first privatization, one slot per page.
	overlay [][]byte

	// bufPool recycles undo-record page buffers across commit cycles.
	bufPool [][]byte

	// CommitCount and LoggedBytes accumulate usage statistics.
	CommitCount int
	LoggedBytes int64

	// CowPages and CowBytes count pages privatized out of the frozen base
	// and the bytes copied doing so — the total copy-on-write cost this
	// fork has paid since it was created.
	CowPages int
	CowBytes int64

	// Metrics, if non-nil, receives the segment's page-diff and undo-log
	// counters (plain increments: the commit hot path stays at zero
	// allocations with metrics enabled), one slot per segment.
	Metrics *obs.VistaMetrics
}

// NewSegment returns a segment of the given initial size. pageSize <= 0
// selects DefaultPageSize.
func NewSegment(size, pageSize int) *Segment {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	s := &Segment{
		pageSize: pageSize,
		size:     size,
		mem:      make([]byte, size),
	}
	s.sizeTracking()
	return s
}

// PageSize returns the trap granularity.
func (s *Segment) PageSize() int { return s.pageSize }

// Size returns the current segment size in bytes.
func (s *Segment) Size() int { return s.size }

// Frozen reports whether the segment has been sealed as a COW template.
func (s *Segment) Frozen() bool { return s.frozen }

// pages returns the current page count.
func (s *Segment) pages() int { return (s.size + s.pageSize - 1) / s.pageSize }

// pageExtent returns the byte range [start,end) page p covers within the
// segment's logical extent.
func (s *Segment) pageExtent(p int) (start, end int) {
	start = p * s.pageSize
	end = start + s.pageSize
	if end > s.size {
		end = s.size
	}
	return start, end
}

// sizeTracking (re)sizes the dirty bitset to the segment size, preserving
// existing entries.
func (s *Segment) sizeTracking() {
	words := (s.pages() + 63) / 64
	for len(s.dirty) < words {
		s.dirty = append(s.dirty, 0)
	}
}

// grow extends the segment to at least n bytes. New memory is zeroed and
// considered committed (like fresh pages from the OS). A flat segment that
// outgrows its capacity doubles it, rounded up to a whole page, so an image
// that grows a little at every commit reallocates O(log size) times, not at
// every commit.
func (s *Segment) grow(n int) {
	if n <= s.size {
		return
	}
	if s.base != nil {
		// COW fork: new pages materialize lazily; until written they read
		// as zeros through the overlay-then-base lookup.
		s.size = n
		s.sizeTracking()
		return
	}
	if n <= cap(s.mem) {
		// The previous extent beyond len is kept zeroed (shrinking
		// SetContents zeroes tails; fresh capacity is zero already), so
		// re-extending within capacity needs no clearing or copying.
		s.mem = s.mem[:n]
	} else {
		c := max(2*cap(s.mem), n)
		c = (c + s.pageSize - 1) / s.pageSize * s.pageSize
		//failtrans:alloc geometric growth: O(log size) reallocations over a process lifetime, and the capacity beyond n is zero like the rest
		bigger := make([]byte, n, c)
		copy(bigger, s.mem)
		s.mem = bigger
	}
	s.size = n
	s.sizeTracking()
}

// mustMutable panics if the segment has been frozen: a template is shared
// by every fork taken from it, so writing it would corrupt them all.
func (s *Segment) mustMutable() {
	if s.frozen {
		panic("vista: mutation of frozen template segment")
	}
}

// pageBuf returns an n-byte buffer for an undo record, recycling pooled
// buffers from earlier commit cycles when possible.
func (s *Segment) pageBuf(n int) []byte {
	if l := len(s.bufPool); l > 0 {
		b := s.bufPool[l-1]
		s.bufPool = s.bufPool[:l-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	//failtrans:alloc pool miss happens only until the pool reaches the working set; AllocsPerRun pins the warmed cycle at zero
	return make([]byte, n, s.pageSize)
}

// releaseUndo returns every owned undo record's page buffer to the pool and
// truncates the log, clearing the records' dirty bits in place. Borrowed
// before-images (template pages, inherited undo buffers) are dropped, not
// pooled — the fork does not own them.
func (s *Segment) releaseUndo() {
	for i := range s.undo {
		s.dirty.clear(s.undo[i].page)
		if !s.undo[i].borrowed {
			s.bufPool = append(s.bufPool, s.undo[i].data)
		}
		s.undo[i].data = nil
		s.undo[i].borrowed = false
	}
	s.undo = s.undo[:0]
	s.nDirty = 0
}

// basePage returns up to n bytes of frozen template page p. Freeze pads the
// template's mem to a page boundary, so every page below its padded extent
// is fully resident; beyond it (the fork grew) the page reads as zeros and
// basePage returns a short (possibly nil) slice.
func (s *Segment) basePage(p, n int) []byte {
	start := p * s.pageSize
	if start >= len(s.mem) {
		return nil
	}
	end := start + n
	if end > len(s.mem) {
		end = len(s.mem)
	}
	return s.mem[start:end]
}

// resident returns the current logical contents of page p without copying.
// The returned slice may be shorter than the page extent; the missing tail
// reads as zeros (a COW fork reading past the frozen base's extent).
func (s *Segment) resident(p int) []byte {
	start, end := s.pageExtent(p)
	if s.base == nil {
		return s.mem[start:end]
	}
	if b := s.private(p); b != nil {
		return b[:end-start]
	}
	return s.base.basePage(p, end-start)
}

// private returns a COW fork's own buffer for page p, or nil while the page
// is still served from the frozen base.
func (s *Segment) private(p int) []byte {
	if p < len(s.overlay) {
		return s.overlay[p]
	}
	return nil
}

// privatize gives page p of a COW fork its own overlay buffer, copying the
// current logical contents out of the frozen base — Discount Checking's
// first-touch copy, applied to the fork engine itself. No-op on flat
// segments and already-private pages.
func (s *Segment) privatize(p int) {
	if s.base == nil || s.private(p) != nil {
		return
	}
	buf := s.pageBuf(s.pageSize)
	n := copy(buf, s.base.basePage(p, s.pageSize))
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	if p >= len(s.overlay) {
		//failtrans:alloc one-time per fork (again only when the fork has outgrown it): the overlay index is deferred out of cowFork to the first privatized page
		grown := make([][]byte, s.pages())
		copy(grown, s.overlay)
		s.overlay = grown
	}
	s.overlay[p] = buf
	s.CowPages++
	s.CowBytes += int64(n)
	if m := s.Metrics; m != nil {
		m.PagesPrivatized++
		m.BytesCOW += int64(n)
	}
}

// writablePage returns the mutable extent of page p, privatizing it first
// on a COW fork.
func (s *Segment) writablePage(p int) []byte {
	start, end := s.pageExtent(p)
	if s.base == nil {
		return s.mem[start:end]
	}
	s.privatize(p)
	return s.overlay[p][:end-start]
}

// touchPage logs the before-image of page p on its first write since the
// last commit. On a COW fork whose page still lives in the frozen base, the
// base's slice is borrowed as the before-image outright — the template can
// never change, so no copy is needed.
func (s *Segment) touchPage(p int) {
	if s.dirty.has(p) {
		return
	}
	s.dirty.set(p)
	s.nDirty++
	start, end := s.pageExtent(p)
	var img []byte
	borrowed := false
	if s.base != nil {
		if s.private(p) == nil {
			img = s.base.basePage(p, end-start)
			borrowed = true
		}
	}
	if !borrowed {
		img = s.pageBuf(end - start)
		copy(img, s.resident(p))
	}
	s.undo = append(s.undo, undoRec{page: p, data: img, borrowed: borrowed})
	s.LoggedBytes += int64(len(img))
	if m := s.Metrics; m != nil {
		m.PagesDirtied++
		m.UndoBytes += int64(len(img))
	}
}

// Write copies data into the segment at off, growing it as needed and
// logging before-images of every touched page.
//
//failtrans:hotpath
func (s *Segment) Write(off int, data []byte) error {
	s.mustMutable()
	if off < 0 {
		//failtrans:alloc cold error path: a negative offset aborts the write, so the formatting never runs in a committing cycle
		return fmt.Errorf("vista: negative offset %d", off)
	}
	if len(data) == 0 {
		return nil
	}
	s.grow(off + len(data))
	first, last := off/s.pageSize, (off+len(data)-1)/s.pageSize
	for p := first; p <= last; p++ {
		s.touchPage(p)
	}
	if s.base == nil {
		copy(s.mem[off:], data)
		return nil
	}
	for p := first; p <= last; p++ {
		start := p * s.pageSize
		page := s.writablePage(p)
		in := 0
		if off > start {
			in = off - start
		}
		copy(page[in:], data[start+in-off:])
	}
	return nil
}

// Read copies n bytes at off out of the segment.
func (s *Segment) Read(off, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("vista: negative read length %d", n)
	}
	out := make([]byte, n)
	if err := s.ReadInto(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst with len(dst) bytes starting at off, without
// allocating.
func (s *Segment) ReadInto(off int, dst []byte) error {
	if off < 0 || off+len(dst) > s.size {
		return fmt.Errorf("vista: read [%d,%d) outside segment of %d bytes", off, off+len(dst), s.size)
	}
	if s.base == nil {
		copy(dst, s.mem[off:])
		return nil
	}
	for filled := 0; filled < len(dst); {
		pos := off + filled
		p := pos / s.pageSize
		start, end := s.pageExtent(p)
		n := end - pos
		if n > len(dst)-filled {
			n = len(dst) - filled
		}
		r := s.resident(p)
		in := pos - start
		copied := 0
		if in < len(r) {
			copied = copy(dst[filled:filled+n], r[in:])
		}
		for i := copied; i < n; i++ {
			dst[filled+i] = 0
		}
		filled += n
	}
	return nil
}

// SetContents replaces the whole segment with data inside the open
// transaction, but touches only the pages that actually differ — the
// analogue of copy-on-write, where clean pages never fault. Each dirtied
// page's before-image goes to the undo log, so Rollback restores the last
// committed image and Commit makes the new one durable. On a COW fork, a
// page is privatized only when it differs — clean pages keep reading through
// to the shared template.
//
//failtrans:hotpath
func (s *Segment) SetContents(data []byte) {
	s.mustMutable()
	s.layImage(data, true)
}

// CommitImage replaces the whole segment with img and commits it with the
// register file in one step — SetContents immediately followed by Commit,
// which is the only way Discount Checking ever commits. Nothing can
// interrupt the step (a simulated crash lands between events, never inside
// a commit), so no rollback could ever read the dirtied pages'
// before-images: none are copied and no undo record is written. The undo
// log a real Vista would have written is accounted arithmetically, so
// Stats, LoggedBytes and every Metrics counter match the two-call form
// exactly. It panics inside an open transaction, whose undo log the fused
// step would otherwise have to extend.
//
//failtrans:hotpath
func (s *Segment) CommitImage(img, registers []byte) Stats {
	s.mustMutable()
	if len(s.undo) != 0 {
		panic("vista: CommitImage inside an open transaction")
	}
	pages, logged := s.layImage(img, false)
	s.LoggedBytes += logged
	s.savedReg = append(s.savedReg[:0], registers...)
	s.CommitCount++
	if m := s.Metrics; m != nil {
		m.PagesDirtied += int64(pages)
		m.UndoBytes += logged
		m.Commits++
	}
	return Stats{Pages: pages, Bytes: pages*s.pageSize + len(registers)}
}

// layImage is the page walk behind SetContents and CommitImage: it grows the
// segment to len(data), compares every page of the extent with the matching
// page of data (bytes past len(data) are zeros: a shorter image clears the
// old tail) and copies the ones that differ. With logUndo each dirtied page
// first goes through touchPage; without, the walk only counts the pages it
// dirtied and the before-image bytes touchPage would have logged for them.
func (s *Segment) layImage(data []byte, logUndo bool) (pages int, logged int64) {
	s.grow(len(data))
	clean := int64(0)
	for p, np := 0, s.pages(); p < np; p++ {
		start, end := s.pageExtent(p)
		var src []byte
		switch {
		case start >= len(data):
		case end > len(data):
			src = data[start:]
		default:
			src = data[start:end]
		}
		cur := s.resident(p)
		if pageEqual(cur, src) {
			clean++
			continue
		}
		if logUndo {
			s.touchPage(p)
		} else {
			pages++
			logged += int64(len(cur))
		}
		page := s.writablePage(p)
		clear(page[copy(page, src):])
	}
	if m := s.Metrics; m != nil {
		m.HashHits += clean
	}
	return pages, logged
}

// pageEqual compares two views of one page extent, treating bytes beyond
// either slice's length as zero. The common full-length comparison runs
// word-wise through bytes.Equal.
func pageEqual(page, src []byte) bool {
	if len(page) > len(src) {
		page, src = src, page
	}
	if !bytes.Equal(src[:len(page)], page) {
		return false
	}
	for _, b := range src[len(page):] {
		if b != 0 {
			return false
		}
	}
	return true
}

// Contents returns a copy of the full segment.
func (s *Segment) Contents() []byte {
	return s.AppendContents(nil)
}

// AppendContents appends the full segment to buf and returns the extended
// slice — the zero-allocation companion of Contents for callers that reuse
// a buffer across commit cycles.
func (s *Segment) AppendContents(buf []byte) []byte {
	if s.base == nil {
		return append(buf, s.mem[:s.size]...)
	}
	np := s.pages()
	for p := 0; p < np; p++ {
		start, end := s.pageExtent(p)
		r := s.resident(p)
		buf = append(buf, r...)
		for i := start + len(r); i < end; i++ {
			buf = append(buf, 0)
		}
	}
	return buf
}

// Freeze seals the segment as an immutable copy-on-write template: every
// mutator panics from now on, and forks share this segment's memory image.
// The image is padded to a page boundary so forks can borrow whole-page
// slices without bounds juggling. A frozen segment may be forked concurrently
// from any number of goroutines without locking — nothing ever writes it
// again, Freeze included (it is idempotent and returns before any store).
func (s *Segment) Freeze() {
	if s.frozen {
		return
	}
	if s.base != nil {
		// Freezing a COW fork: materialize it flat first, so forks taken
		// from this template never chase a base chain and fork cost stays
		// independent of how many generations preceded it.
		flat := make([]byte, 0, s.pages()*s.pageSize)
		flat = s.AppendContents(flat)
		s.mem = flat
		s.base = nil
		s.overlay = nil
	}
	if padded := s.pages() * s.pageSize; len(s.mem) < padded {
		//failtrans:cowok the frozen early-return above is the mustMutable check inlined: only an unfrozen segment reaches here, and an unfrozen segment's mem is private (a fork's is nil until materialized flat just above)
		s.mem = append(s.mem, make([]byte, padded-len(s.mem))...)
	}
	s.frozen = true
}

// Fork seals the segment with Freeze and returns an independent copy-on-write
// fork of it, mid-transaction state included: dirty set and undo headers are
// copied, the memory image and any pending undo before-images are shared with
// the receiver — which Freeze guarantees can never change — and pages are
// privatized only as the fork writes them, so forking costs O(metadata). A
// rollback of the fork behaves exactly as one of the receiver would have.
// The buffer pool and Metrics sink do not carry over (the fork warms its own
// pool; observability is per-run), and the overlay index waits for the first
// privatized page.
func (s *Segment) Fork() *Segment {
	s.Freeze()
	ns := &Segment{
		pageSize:    s.pageSize,
		size:        s.size,
		base:        s,
		undo:        make([]undoRec, len(s.undo)),
		dirty:       append(pageBitset(nil), s.dirty...),
		nDirty:      s.nDirty,
		savedReg:    append([]byte(nil), s.savedReg...),
		CommitCount: s.CommitCount,
		LoggedBytes: s.LoggedBytes,
	}
	for i, rec := range s.undo {
		ns.undo[i] = undoRec{page: rec.page, data: rec.data, borrowed: true}
	}
	return ns
}

// DirtyPages returns how many pages have been touched since the last
// commit.
func (s *Segment) DirtyPages() int { return s.nDirty }

// Commit atomically saves the register file, discards the undo log, and
// re-arms the page traps. It returns what had to be written to stable
// storage. The undo log's page buffers are recycled for future cycles, so
// a steady-state commit allocates nothing.
//
//failtrans:hotpath
func (s *Segment) Commit(registers []byte) Stats {
	s.mustMutable()
	st := Stats{Pages: s.nDirty, Bytes: s.nDirty*s.pageSize + len(registers)}
	s.savedReg = append(s.savedReg[:0], registers...)
	s.releaseUndo()
	s.CommitCount++
	if m := s.Metrics; m != nil {
		m.Commits++
	}
	return st
}

// RollbackPages applies the undo log in reverse, returning the segment to
// its last committed state, without copying out the saved register file —
// the zero-allocation form of Rollback for recovery paths that read the
// registers elsewhere. After a simulated crash this is exactly recovery:
// the undo log is persistent.
//
//failtrans:hotpath
func (s *Segment) RollbackPages() {
	s.mustMutable()
	for i := len(s.undo) - 1; i >= 0; i-- {
		rec := s.undo[i]
		page := s.writablePage(rec.page)
		// A before-image shorter than the current extent means the page
		// grew after it was touched; the grown region was committed as
		// zeros, so restore zeros there.
		clear(page[copy(page, rec.data):])
	}
	s.releaseUndo()
	if m := s.Metrics; m != nil {
		m.Rollbacks++
	}
}

// Rollback applies the undo log in reverse and returns a copy of the saved
// register file.
func (s *Segment) Rollback() []byte {
	s.RollbackPages()
	reg := make([]byte, len(s.savedReg))
	copy(reg, s.savedReg)
	return reg
}

// SameContents reports whether s holds exactly t's committed state: the same
// page size, extent, saved register file and bytes, with no transaction open
// on either side. It only reads both segments, so a frozen template may be
// compared against from many goroutines at once, and it answers false
// whenever it cannot prove equality (an open transaction included). Pages
// the two share by reference are equal without a byte compare.
func (s *Segment) SameContents(t *Segment) bool {
	if s.pageSize != t.pageSize || s.size != t.size || len(s.undo) != 0 || len(t.undo) != 0 ||
		!bytes.Equal(s.savedReg, t.savedReg) {
		return false
	}
	for p, np := 0, s.pages(); p < np; p++ {
		a, b := s.resident(p), t.resident(p)
		if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
			continue
		}
		if !pageEqual(a, b) {
			return false
		}
	}
	return true
}
