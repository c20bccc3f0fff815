package vista

import (
	"bytes"
	"math/rand"
	"testing"

	"failtrans/internal/obs"
)

// TestCommitCycleZeroAllocs pins the tentpole property of the incremental
// commit engine: once warmed up, a write→commit cycle and a
// SetContents→commit cycle allocate nothing — the dirty bitset is cleared
// in place and undo-record page buffers are recycled through the pool.
func TestCommitCycleZeroAllocs(t *testing.T) {
	seg := NewSegment(0, 4096)
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)

	one := []byte{0}
	i := 0
	writeCycle := func() {
		one[0] = byte(i)
		if err := seg.Write((i*4096+17)%len(img), one); err != nil {
			t.Fatal(err)
		}
		seg.Commit(nil)
		i++
	}
	writeCycle() // prime the buffer pool
	if n := testing.AllocsPerRun(200, writeCycle); n != 0 {
		t.Errorf("write→commit cycle allocates %.1f times per run, want 0", n)
	}

	j := 0
	setCycle := func() {
		img[(j*4096+33)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
		j++
	}
	setCycle()
	if n := testing.AllocsPerRun(200, setCycle); n != 0 {
		t.Errorf("SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
}

// TestCommitCycleZeroAllocsWithMetrics proves the observability layer adds
// zero allocations to the commit hot path: the same warmed write→commit and
// SetContents→commit cycles, with a metrics slot attached, still allocate
// nothing — every counter update is a plain fixed-slot increment.
func TestCommitCycleZeroAllocsWithMetrics(t *testing.T) {
	seg := NewSegment(0, 4096)
	m := &obs.VistaMetrics{}
	seg.Metrics = m
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)

	i := 0
	cycle := func() {
		img[(i*4096+17)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
		i++
	}
	cycle() // prime the buffer pool
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("instrumented SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
	if m.Commits == 0 || m.PagesDirtied == 0 {
		t.Errorf("metrics did not accumulate: %+v", *m)
	}
}

// TestFlatGrowthIsGeometric pins the growth policy of a flat segment: an
// image one byte longer at every commit (nvi's, as the user types) must not
// reallocate the segment at every commit. 4 096 such commits may reallocate
// at most log2(4096)+1 times; the capacity past the extent stays zero, and
// what a commit reports depends on the extent alone.
func TestFlatGrowthIsGeometric(t *testing.T) {
	const ps, commits = 64, 4096
	seg := NewSegment(0, ps)
	img := make([]byte, 0, commits)
	reallocs := 0
	for i := 0; i < commits; i++ {
		img = append(img, byte(i)|1)
		before := cap(seg.mem)
		st := seg.CommitImage(img, nil)
		if cap(seg.mem) != before {
			reallocs++
		}
		// The appended byte dirties the final page; a byte that opens a
		// page also rewrites nothing before it.
		if want := (Stats{Pages: 1, Bytes: ps}); st != want {
			t.Fatalf("commit %d: stats %+v, want %+v", i, st, want)
		}
	}
	if reallocs > 13 {
		t.Errorf("%d one-byte-longer commits reallocated the segment %d times, want at most 13", commits, reallocs)
	}
	for i, b := range seg.mem[len(seg.mem):cap(seg.mem)] {
		if b != 0 {
			t.Fatalf("capacity byte len+%d = %#x, want zero", i, b)
		}
	}
	if !bytes.Equal(seg.Contents(), img) {
		t.Error("segment contents differ from the last image")
	}
}

// refSegment is the naive reference model for SetContents semantics: the
// segment holds the last image, zero-padded to the largest extent ever set.
type refSegment struct {
	mem       []byte
	committed []byte
}

func (r *refSegment) set(data []byte) {
	if len(data) > len(r.mem) {
		r.mem = append(r.mem, make([]byte, len(data)-len(r.mem))...)
	}
	copy(r.mem, data)
	for i := len(data); i < len(r.mem); i++ {
		r.mem[i] = 0
	}
}

func (r *refSegment) write(off int, data []byte) {
	if need := off + len(data); need > len(r.mem) {
		r.mem = append(r.mem, make([]byte, need-len(r.mem))...)
	}
	copy(r.mem[off:], data)
}

func (r *refSegment) commit() { r.committed = append(r.committed[:0], r.mem...) }

func (r *refSegment) rollback() {
	for i := range r.mem {
		r.mem[i] = 0
	}
	copy(r.mem, r.committed)
}

func pat(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*7)
	}
	return out
}

// TestSetContentsBoundaryCases drives the page-diff path across the
// boundary shapes the page comparison must get right: growth with a partial
// final page, shrinking, an all-zero tail, emptying, and re-growth within
// retained capacity.
func TestSetContentsBoundaryCases(t *testing.T) {
	const ps = 64
	seg := NewSegment(0, ps)
	ref := &refSegment{}
	set := func(data []byte) {
		t.Helper()
		seg.SetContents(data)
		ref.set(data)
		if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
			t.Fatalf("after SetContents(len=%d): segment %v != reference %v", len(data), got, ref.mem)
		}
	}

	// Grow across a page boundary ending in a partial final page.
	set(pat(ps*3+17, 1))
	seg.Commit(nil)

	// An identical image must dirty nothing (the clean-skip fast path).
	set(pat(ps*3+17, 1))
	if st := seg.Commit(nil); st.Pages != 0 {
		t.Errorf("identical image dirtied %d pages, want 0", st.Pages)
	}

	// A single-byte change must dirty exactly one page.
	d := pat(ps*3+17, 1)
	d[ps+5] ^= 0xFF
	set(d)
	if st := seg.Commit(nil); st.Pages != 1 {
		t.Errorf("one-byte change dirtied %d pages, want 1", st.Pages)
	}

	// Shrink to a partial first page: the old tail pages must read as zero.
	set(pat(ps/2, 2))
	seg.Commit(nil)

	// All-zero tail: only the first page holds data.
	z := pat(ps*4, 3)
	for i := ps; i < len(z); i++ {
		z[i] = 0
	}
	set(z)
	seg.Commit(nil)

	// Shrink to empty, then regrow within the retained capacity.
	set(nil)
	set(pat(ps*2+1, 4))
}

// TestSetContentsRandomizedAgainstReference interleaves SetContents, Write,
// Commit and Rollback with random extents and checks the segment against
// the naive model after every operation — including that rollback restores
// exactly the committed image.
func TestSetContentsRandomizedAgainstReference(t *testing.T) {
	const ps = 32
	rng := rand.New(rand.NewSource(7))
	seg := NewSegment(0, ps)
	ref := &refSegment{}
	seg.Commit(nil)
	ref.commit()

	randImage := func() []byte {
		n := rng.Intn(6*ps + 1)
		out := make([]byte, n)
		for i := range out {
			if rng.Intn(3) > 0 { // bias toward zeros to exercise zero tails
				out[i] = byte(rng.Intn(256))
			}
		}
		return out
	}

	for iter := 0; iter < 2000; iter++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			img := randImage()
			seg.SetContents(img)
			ref.set(img)
		case 3:
			off := rng.Intn(5 * ps)
			data := pat(rng.Intn(ps)+1, byte(iter))
			if err := seg.Write(off, data); err != nil {
				t.Fatal(err)
			}
			ref.write(off, data)
		case 4:
			seg.Commit(nil)
			ref.commit()
		default:
			seg.Rollback()
			ref.rollback()
		}
		if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
			t.Fatalf("iter %d: segment diverged from reference (len %d vs %d)", iter, len(got), len(ref.mem))
		}
	}
}
