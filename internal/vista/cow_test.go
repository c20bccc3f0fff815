package vista

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomOp applies one random operation from rng to seg: mostly a commit
// of a random image (SetContents then Commit), otherwise a read-back.
func randomOp(rng *rand.Rand, seg *Segment, ps int, iter int) {
	if rng.Intn(5) == 4 {
		seg.Rollback(nil)
		return
	}
	n := rng.Intn(6*ps + 1)
	img := make([]byte, n)
	for i := range img {
		if rng.Intn(3) > 0 {
			img[i] = byte(rng.Intn(256))
		}
	}
	seg.SetContents(img)
	seg.Commit([]byte{byte(iter)})
}

// randomPrefix returns a fresh segment driven through n random operations
// from seed. Two calls with the same arguments build twins: equal in every
// respect and sharing nothing.
func randomPrefix(seed int64, n, ps int) *Segment {
	rng := rand.New(rand.NewSource(seed))
	seg := NewSegment(0, ps)
	for i := 0; i < n; i++ {
		randomOp(rng, seg, ps, i)
	}
	return seg
}

// TestCOWForkMatchesNeverForkedTwin is the fork-isolation property test: two
// twin segments are built up with the same random operations; one is never
// forked (the oracle), the other is sealed by Fork. The same randomized
// operation stream is applied to the oracle and the fork; after every step
// their contents must be byte-identical, and the sealed template must never
// change.
func TestCOWForkMatchesNeverForkedTwin(t *testing.T) {
	const ps = 32
	for seed := int64(1); seed <= 8; seed++ {
		oracle, tmpl := randomPrefix(seed, 50, ps), randomPrefix(seed, 50, ps)
		cow := tmpl.Fork()
		if cow.base != tmpl || !tmpl.frozen {
			t.Fatal("Fork did not seal its receiver and fork copy-on-write from it")
		}
		tmplBefore := tmpl.Contents()

		for i := 0; i < 400; i++ {
			opSeed := seed*1000 + int64(i)
			randomOp(rand.New(rand.NewSource(opSeed)), cow, ps, i)
			randomOp(rand.New(rand.NewSource(opSeed)), oracle, ps, i)
			got, want := cow.Contents(), oracle.Contents()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d iter %d: COW fork diverged from its never-forked twin (len %d vs %d)", seed, i, len(got), len(want))
			}
		}
		if !bytes.Equal(tmpl.Contents(), tmplBefore) {
			t.Fatalf("seed %d: sealed template mutated by its fork", seed)
		}
		if cow.CowPages == 0 {
			t.Fatalf("seed %d: fork privatized no pages across 400 random mutations", seed)
		}
	}
}

// TestCOWForksConcurrentNeverAlias runs N concurrent COW forks of one
// frozen template, each mutating independently, and checks that no fork's
// writes leak into another fork or into the template: every fork must end
// byte-identical to a never-forked twin of the template given the same
// operations serially.
func TestCOWForksConcurrentNeverAlias(t *testing.T) {
	const ps = 64
	const forks = 8
	tmpl := randomPrefix(42, 80, ps)
	tmpl.Freeze()
	tmplBefore := tmpl.Contents()

	var wg sync.WaitGroup
	results := make([][]byte, forks)
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := tmpl.Fork()
			r := rand.New(rand.NewSource(int64(i) * 7919))
			for op := 0; op < 300; op++ {
				randomOp(r, f, ps, op)
			}
			results[i] = f.Contents()
		}(i)
	}
	wg.Wait()

	for i := 0; i < forks; i++ {
		oracle := randomPrefix(42, 80, ps)
		r := rand.New(rand.NewSource(int64(i) * 7919))
		for op := 0; op < 300; op++ {
			randomOp(r, oracle, ps, op)
		}
		if !bytes.Equal(results[i], oracle.Contents()) {
			t.Errorf("fork %d diverged from its never-forked twin", i)
		}
	}
	if !bytes.Equal(tmpl.Contents(), tmplBefore) {
		t.Fatal("frozen template mutated by concurrent forks")
	}
}

// TestFrozenSegmentMutationPanics pins the Freeze contract: every mutator
// on a sealed template panics instead of corrupting the forks sharing it.
func TestFrozenSegmentMutationPanics(t *testing.T) {
	mutations := map[string]func(*Segment){
		"SetContents": func(s *Segment) { s.SetContents([]byte{1}) },
		"Commit":      func(s *Segment) { s.Commit(nil) },
		"Rollback":    func(s *Segment) { s.Rollback(nil) },
	}
	for name, mut := range mutations {
		s := NewSegment(64, 32)
		s.Freeze()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen segment did not panic", name)
				}
			}()
			mut(s)
		}()
	}
}

// TestCOWForkCommitCycleZeroAllocs extends the zero-allocation pin to COW
// forks: a fork's first commit pays one buffer per page it privatizes plus
// the overlay index, and once a fork has privatized its working set, a
// SetContents→commit cycle allocates nothing — overlay lookups are slice
// reads.
func TestCOWForkCommitCycleZeroAllocs(t *testing.T) {
	tmpl := NewSegment(0, 4096)
	img := make([]byte, 64*1024)
	tmpl.SetContents(img)
	tmpl.Commit(nil)
	tmpl.Freeze()

	const runs, dirty = 50, 3
	forks := make([]*Segment, runs+1) // AllocsPerRun makes one warm-up call
	for k := range forks {
		forks[k] = tmpl.Fork()
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
		t.Errorf("first commit on a COW fork allocates %.1f times, want at most %d (privatized pages + 1)", n, dirty+1)
	}

	f := tmpl.Fork()
	i := 0
	cycle := func() {
		img[(i*4096+17)%len(img)] ^= 1
		f.SetContents(img)
		f.Commit(nil)
		i++
	}
	// Warm: privatize every page the cycle touches.
	for w := 0; w < len(img)/4096+2; w++ {
		cycle()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("warmed COW fork SetContents→commit cycle allocates %.1f times per run, want 0", n)
	}
	if f.CowPages == 0 {
		t.Fatal("fork never privatized a page")
	}
}

// TestForkOfCOWForkMaterializes checks the next generation: forking a live
// COW fork seals it flat — its overlay-then-base view is materialized, so
// however long the ancestry a fork reads through exactly one base — and the
// new fork starts from the same contents and shares no writes with it.
func TestForkOfCOWForkMaterializes(t *testing.T) {
	const ps = 32
	tmpl := NewSegment(0, ps)
	tmpl.SetContents(pat(ps*3, 3))
	tmpl.Commit(nil)

	f := tmpl.Fork()
	want := pat(ps*3, 3)
	want[ps+1] = 0xEE
	f.SetContents(want)
	f.Commit(nil)
	g := f.Fork()
	if f.base != nil || g.base != f {
		t.Fatal("fork of a COW fork still chains to the first template")
	}
	if !bytes.Equal(f.Contents(), want) || !bytes.Equal(g.Contents(), want) {
		t.Fatal("materializing changed the COW fork's contents")
	}
	g.SetContents(pat(ps*2, 5))
	g.Commit(nil)
	if !bytes.Equal(f.Contents(), want) {
		t.Fatal("second-generation fork wrote through to the sealed COW fork")
	}
}

func ExampleSegment_Freeze() {
	tmpl := NewSegment(0, 4096)
	tmpl.SetContents([]byte("template state"))
	tmpl.Commit(nil)
	tmpl.Freeze()
	f := tmpl.Fork()
	f.SetContents([]byte("fork-mid-state"))
	f.Commit(nil)
	fmt.Printf("fork=%q template=%q privatized=%d\n",
		f.Contents(), tmpl.Contents(), f.CowPages)
	// Output: fork="fork-mid-state" template="template state" privatized=1
}
