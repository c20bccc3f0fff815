package vista

import (
	"bytes"
	"testing"

	"failtrans/internal/obs"
)

// TestCommitCycleZeroAllocs pins the tentpole property of the incremental
// commit engine: once warmed up, a SetContents→commit cycle allocates
// nothing — dirty pages are copied in place and no before-image is kept.
func TestCommitCycleZeroAllocs(t *testing.T) {
	seg := NewSegment(0, 4096)
	img := make([]byte, 64*1024)
	seg.SetContents(img)
	seg.Commit(nil)

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
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("instrumented SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
	if m.Commits == 0 || m.PagesDirtied == 0 {
		t.Errorf("metrics did not accumulate: %+v", *m)
	}
}

// TestCommitImageAllocs follows one checkpoint image through a segment's
// whole life: a warmed flat SetContents→commit cycle allocates nothing and
// still counts its clean pages, and once that same segment is frozen as a
// template, a fork's first commit pays at most one buffer per page it
// privatizes plus the overlay index.
func TestCommitImageAllocs(t *testing.T) {
	img := make([]byte, 64*1024)
	seg := NewSegment(0, 4096)
	m := &obs.VistaMetrics{}
	seg.Metrics = m
	seg.SetContents(img)
	seg.Commit(nil)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		img[(i*4096+17)%len(img)] ^= 1
		seg.SetContents(img)
		seg.Commit(nil)
		i++
	}); n != 0 {
		t.Errorf("warmed flat SetContents→commit allocates %.1f times per run, want 0", n)
	}
	if m.PagesDirtied == 0 || m.HashHits == 0 {
		t.Errorf("metrics did not accumulate: %+v", *m)
	}

	seg.Freeze()
	const runs, dirty = 50, 3
	forks := make([]*Segment, runs+1) // AllocsPerRun makes one warm-up call
	for k := range forks {
		forks[k] = seg.Fork()
	}
	changed := append([]byte(nil), img...)
	for p := 0; p < dirty; p++ {
		changed[p*2*4096+5] ^= 0xFF
	}
	k := 0
	n := testing.AllocsPerRun(runs, func() {
		forks[k].SetContents(changed)
		if st := forks[k].Commit(nil); st.Pages != dirty {
			t.Fatalf("first fork commit dirtied %d pages, want %d", st.Pages, dirty)
		}
		k++
	})
	if n > dirty+1 {
		t.Errorf("first commit on a COW fork of a used segment allocates %.1f times, want at most %d (privatized pages + 1)", n, dirty+1)
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
		seg.SetContents(img)
		st := seg.Commit(nil)
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
	mem []byte
}

// set lays data into the model and returns how many pages of ps bytes it
// changed, comparing byte by byte.
func (r *refSegment) set(data []byte, ps int) (dirty int) {
	if len(data) > len(r.mem) {
		r.mem = append(r.mem, make([]byte, len(data)-len(r.mem))...)
	}
	for start := 0; start < len(r.mem); start += ps {
		differs := false
		for i := start; i < min(start+ps, len(r.mem)); i++ {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			if r.mem[i] != b {
				r.mem[i], differs = b, true
			}
		}
		if differs {
			dirty++
		}
	}
	return dirty
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
// retained capacity. Every commit reports the pages the model saw change.
func TestSetContentsBoundaryCases(t *testing.T) {
	const ps = 64
	seg := NewSegment(0, ps)
	ref := &refSegment{}
	commit := func(data []byte) int {
		t.Helper()
		seg.SetContents(data)
		want := ref.set(data, ps)
		if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
			t.Fatalf("after SetContents(len=%d): segment %v != reference %v", len(data), got, ref.mem)
		}
		st := seg.Commit(nil)
		if st.Pages != want {
			t.Fatalf("SetContents(len=%d) dirtied %d pages, reference %d", len(data), st.Pages, want)
		}
		return st.Pages
	}

	// Grow across a page boundary ending in a partial final page.
	commit(pat(ps*3+17, 1))

	// An identical image must dirty nothing (the clean-skip fast path).
	if n := commit(pat(ps*3+17, 1)); n != 0 {
		t.Errorf("identical image dirtied %d pages, want 0", n)
	}

	// A single-byte change must dirty exactly one page.
	d := pat(ps*3+17, 1)
	d[ps+5] ^= 0xFF
	if n := commit(d); n != 1 {
		t.Errorf("one-byte change dirtied %d pages, want 1", n)
	}

	// Shrink to a partial first page: the old tail pages must read as zero.
	commit(pat(ps/2, 2))

	// All-zero tail: only the first page holds data.
	z := pat(ps*4, 3)
	for i := ps; i < len(z); i++ {
		z[i] = 0
	}
	commit(z)

	// Shrink to empty, then regrow within the retained capacity.
	commit(nil)
	commit(pat(ps*2+1, 4))
}
