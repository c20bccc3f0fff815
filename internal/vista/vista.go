// Package vista reimplements the mechanism of the Vista transaction library
// (Lowell & Chen, SOSP 1997) that Discount Checking is built on: a process
// maps its state into a segment of reliable memory, updates are trapped at
// page granularity, and a commit atomically saves the register file and the
// pages that changed.
//
// The original makes a commit atomic with an undo log on Rio: a crash in the
// middle of a commit recovers the before-images of the pages it had already
// written, that is, the previous committed image. This segment keeps no undo
// log, because nothing can interrupt a commit here: the simulator crashes a
// process only between events, and a commit is one call inside an event. By
// that same atomicity, a crash inside a commit has the outcome of a crash
// just before it. So a segment holds its committed image and nothing else,
// and rolling a process back is reading that image out (Rollback). The
// before-image bytes a real Vista would log are still accounted, as
// arithmetic (LoggedBytes, Metrics.UndoBytes).
//
// A commit is SetContents followed by Commit: one compare-and-copy pass over
// the incoming image with zero steady-state heap allocations. Each page is
// compared with the resident one (bytes.Equal stops at the first differing
// word, and nearly every page of a checkpoint image is dirty) and copied in
// place when it differs.
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

	"failtrans/internal/obs"
)

// DefaultPageSize matches the i386 page size the original used.
const DefaultPageSize = 4096

// Stats reports what a commit had to write.
type Stats struct {
	// Pages is the number of pages the commit's image dirtied.
	Pages int
	// Bytes is the total payload a commit must persist: the dirtied
	// pages plus the register file.
	Bytes int
}

// Segment is one process's persistent address space: its committed image
// and register file. The zero value is not usable; call NewSegment.
type Segment struct {
	pageSize int
	// size is the logical extent in bytes. For an ordinary (flat) segment
	// len(mem) == size; a frozen template's mem is padded to a page
	// boundary beyond size, and a COW fork's mem is nil (its contents live
	// in overlay and base).
	size int
	// A frozen template's mem is read by every COW fork through base, so
	// writes must first prove the segment private: mustMutable panics on
	// a frozen template, and writablePage privatizes a fork's page into
	// overlay before the write lands.
	//failtrans:cowshared mustMutable,writablePage
	mem []byte
	// savedReg is the register file the last Commit saved. A fork reads its
	// template's (sharedReg) until a Commit saves different bytes, which
	// makes it the fork's own first: Fork copies no registers.
	//failtrans:cowshared saveRegisters
	savedReg  []byte
	sharedReg bool
	// pending counts the pages SetContents dirtied that the next Commit
	// reports; it is zero everywhere else.
	pending int

	// frozen marks a sealed template: mutators panic, and forks share this
	// segment's memory. A frozen segment is immutable forever, so any number
	// of forks may read it concurrently without locking.
	frozen bool
	// base, when non-nil, is the frozen template this segment was COW-
	// forked from. Page contents are read overlay-first, then base; pages
	// past the base's extent (the fork grew) read as zeros until written.
	base *Segment
	// overlay holds the fork's privatized pages by page number (nil: the
	// page is still served from base): full pageSize buffers whose logical
	// tail beyond the extent is kept zeroed, so growth re-exposes zeros
	// exactly like flat memory does. It is allocated at the first
	// privatization, one slot per page.
	overlay [][]byte

	// CommitCount and LoggedBytes accumulate usage statistics. LoggedBytes
	// is what a Vista undo log would have held: the before-image of every
	// page a commit dirtied.
	CommitCount int
	LoggedBytes int64

	// CowPages and CowBytes count pages privatized out of the frozen base
	// and the bytes copied doing so — the total copy-on-write cost this
	// fork has paid since it was created.
	CowPages int
	CowBytes int64

	// Metrics, if non-nil, receives the segment's page-diff and rollback
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
	return &Segment{
		pageSize: pageSize,
		size:     size,
		mem:      make([]byte, size),
	}
}

// PageSize returns the trap granularity.
func (s *Segment) PageSize() int { return s.pageSize }

// Size returns the current segment size in bytes.
func (s *Segment) Size() int { return s.size }

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
}

// mustMutable panics if the segment has been frozen: a template is shared
// by every fork taken from it, so writing it would corrupt them all.
func (s *Segment) mustMutable() {
	if s.frozen {
		panic("vista: mutation of frozen template segment")
	}
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
	//failtrans:alloc one page per page a fork dirties, once: the copy-on-write cost AllocsPerRun bounds for a fork's first commit
	buf := make([]byte, s.pageSize)
	n := copy(buf, s.base.basePage(p, s.pageSize))
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

// SetContents lays img into the segment as the image the next Commit makes
// durable, touching only the pages that actually differ — the analogue of
// copy-on-write, where clean pages never fault. It grows the segment to
// len(img), compares every page of the extent with the matching page of img
// (bytes past len(img) are zeros: a shorter image clears the old tail) and
// copies the ones that differ; on a COW fork, a page is privatized only when
// it differs, so clean pages keep reading through to the shared template.
// Each SetContents must be followed by exactly one Commit, before anything
// else reads or forks the segment: nothing can interrupt the pair (a
// simulated crash lands between events), so no before-image is kept and the
// bytes a Vista undo log would have held are only counted.
//
//failtrans:hotpath
func (s *Segment) SetContents(img []byte) {
	s.mustMutable()
	s.grow(len(img))
	pages, clean, logged := 0, int64(0), int64(0)
	for p, np := 0, s.pages(); p < np; p++ {
		start, end := s.pageExtent(p)
		var src []byte
		switch {
		case start >= len(img):
		case end > len(img):
			src = img[start:]
		default:
			src = img[start:end]
		}
		cur := s.resident(p)
		if pageEqual(cur, src) {
			clean++
			continue
		}
		pages++
		logged += int64(len(cur))
		page := s.writablePage(p)
		clear(page[copy(page, src):])
	}
	s.pending += pages
	s.LoggedBytes += logged
	if m := s.Metrics; m != nil {
		m.PagesDirtied += int64(pages)
		m.UndoBytes += logged
		m.HashHits += clean
	}
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

// Commit saves the register file with the image SetContents just laid and
// returns what had to be written to stable storage: the pages that image
// dirtied plus the registers.
//
//failtrans:hotpath
func (s *Segment) Commit(registers []byte) Stats {
	s.mustMutable()
	st := Stats{Pages: s.pending, Bytes: s.pending*s.pageSize + len(registers)}
	s.pending = 0
	s.saveRegisters(registers)
	s.CommitCount++
	if m := s.Metrics; m != nil {
		m.Commits++
	}
	return st
}

// Rollback appends the committed image to dst, returns the extended slice
// and counts a rollback. The segment holds nothing but its committed image,
// so returning a process to its last commit is reading that image out; the
// register file stays where Commit saved it.
//
//failtrans:hotpath
func (s *Segment) Rollback(dst []byte) []byte {
	s.mustMutable()
	if m := s.Metrics; m != nil {
		m.Rollbacks++
	}
	return s.AppendContents(dst)
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
// fork of it: the memory image and the register file are shared with the
// receiver — which Freeze guarantees can never change — and pages and
// registers are privatized only as the fork writes them, so forking costs
// O(metadata) and one allocation. The Metrics sink does not carry
// over (observability is per-run), and the overlay index waits for the first
// privatized page.
func (s *Segment) Fork() *Segment {
	s.Freeze()
	return &Segment{
		pageSize:    s.pageSize,
		size:        s.size,
		base:        s,
		savedReg:    s.savedReg,
		sharedReg:   true,
		CommitCount: s.CommitCount,
		LoggedBytes: s.LoggedBytes,
	}
}

// saveRegisters saves the register file with a commit, in place once it is
// the segment's own. A fork goes on reading its template's while its commits
// save the same bytes, and drops it for a file of its own at the first that
// saves different ones.
func (s *Segment) saveRegisters(registers []byte) {
	if s.sharedReg {
		if bytes.Equal(s.savedReg, registers) {
			return
		}
		s.savedReg, s.sharedReg = nil, false
	}
	s.savedReg = append(s.savedReg[:0], registers...)
}

// SameContents reports whether s holds exactly t's committed state: the same
// page size, extent, saved register file and bytes. It only reads both
// segments, so a frozen template may be compared against from many
// goroutines at once, and it answers false whenever it cannot prove
// equality. Pages the two share by reference are equal without a byte
// compare.
func (s *Segment) SameContents(t *Segment) bool {
	if s.pageSize != t.pageSize || s.size != t.size || !bytes.Equal(s.savedReg, t.savedReg) {
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
