package vista

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomOps drives one segment through n random mutations (Write,
// SetContents, Commit, Rollback) from rng, mirroring the randomized
// reference test's operation mix.
func randomOp(rng *rand.Rand, seg *Segment, ps int, iter int) {
	switch rng.Intn(6) {
	case 0, 1, 2:
		n := rng.Intn(6*ps + 1)
		img := make([]byte, n)
		for i := range img {
			if rng.Intn(3) > 0 {
				img[i] = byte(rng.Intn(256))
			}
		}
		seg.SetContents(img)
	case 3:
		off := rng.Intn(5 * ps)
		data := pat(rng.Intn(ps)+1, byte(iter))
		if err := seg.Write(off, data); err != nil {
			panic(err)
		}
	case 4:
		seg.Commit([]byte{byte(iter)})
	default:
		seg.Rollback()
	}
}

// randomPrefix returns a fresh segment driven through n random operations
// from seed. Two calls with the same arguments build twins: equal in every
// respect, the open transaction included, and sharing nothing.
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
// their contents must be byte-identical — rollbacks into the transaction the
// prefix left open included — and the sealed template must never change.
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

// TestCOWRollbackPrivatizesUndo proves a crashed COW fork recovers through
// its own undo log without disturbing the template: mid-transaction state
// (dirty pages, undo records) carries across the fork, and rolling the fork
// back restores the template's committed image — the crash-injection
// contract the fault campaigns rely on.
func TestCOWRollbackPrivatizesUndo(t *testing.T) {
	const ps = 32
	tmpl := NewSegment(0, ps)
	committed := pat(ps*3+7, 9)
	tmpl.SetContents(committed)
	tmpl.Commit([]byte("regs"))
	// Leave an open transaction in the template: the fork inherits its
	// undo records (borrowed), exactly like a snapshot captured mid-step.
	if err := tmpl.Write(5, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	tmpl.Freeze()
	tmplBefore := tmpl.Contents()

	f := tmpl.Fork()
	// The fork keeps writing, then "crashes" and recovers via rollback.
	if err := f.Write(ps*2+3, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.SetContents(pat(ps*4, 13))
	reg := f.Rollback()
	if string(reg) != "regs" {
		t.Fatalf("rollback returned registers %q, want %q", reg, "regs")
	}
	want := make([]byte, ps*4) // rollback does not shrink; tail reads zero
	copy(want, committed)
	if got := f.Contents(); !bytes.Equal(got, want) {
		t.Fatalf("rolled-back fork != committed template image\ngot  %v\nwant %v", got, want)
	}
	if !bytes.Equal(tmpl.Contents(), tmplBefore) {
		t.Fatal("rollback of fork mutated the frozen template")
	}
	// A second fork must see the template's pristine mid-transaction state.
	f2 := tmpl.Fork()
	if got := f2.Contents(); !bytes.Equal(got, tmplBefore) {
		t.Fatal("second fork does not see the template's state")
	}
}

// TestFrozenSegmentMutationPanics pins the Freeze contract: every mutator
// on a sealed template panics instead of corrupting the forks sharing it.
func TestFrozenSegmentMutationPanics(t *testing.T) {
	mutations := map[string]func(*Segment){
		"Write":       func(s *Segment) { _ = s.Write(0, []byte{1}) },
		"SetContents": func(s *Segment) { s.SetContents([]byte{1}) },
		"Commit":      func(s *Segment) { s.Commit(nil) },
		"Rollback":    func(s *Segment) { s.Rollback() },
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
// forks: once a fork has privatized its working set, a SetContents→commit
// cycle allocates nothing — overlay lookups are slice reads, undo buffers
// come from the pool, and borrowed before-images are plain slices.
func TestCOWForkCommitCycleZeroAllocs(t *testing.T) {
	tmpl := NewSegment(0, 4096)
	img := make([]byte, 64*1024)
	tmpl.SetContents(img)
	tmpl.Commit(nil)
	tmpl.Freeze()

	f := tmpl.Fork()
	i := 0
	cycle := func() {
		img[(i*4096+17)%len(img)] ^= 1
		f.SetContents(img)
		f.Commit(nil)
		i++
	}
	// Warm: privatize every page the cycle touches and fill the pool.
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
	if err := f.Write(ps+1, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	want := f.Contents()
	g := f.Fork()
	if f.base != nil || g.base != f {
		t.Fatal("fork of a COW fork still chains to the first template")
	}
	if !bytes.Equal(f.Contents(), want) || !bytes.Equal(g.Contents(), want) {
		t.Fatal("materializing changed the COW fork's contents")
	}
	g.SetContents(pat(ps*2, 5))
	if !bytes.Equal(f.Contents(), want) {
		t.Fatal("second-generation fork wrote through to the sealed COW fork")
	}
}

// TestRollbackZeroesGrownPageTail pins the rollback semantics the COW
// engine relies on (and that the flat path needs too): memory a page gains
// by growing *after* it was touched is committed-as-zero, so rollback must
// restore zeros there even though the before-image predates the growth.
func TestRollbackZeroesGrownPageTail(t *testing.T) {
	const ps = 32
	s := NewSegment(0, ps)
	s.SetContents(pat(ps+2, 1)) // page 1 has extent 2
	s.Commit(nil)
	if err := s.Write(ps+1, []byte{7}); err != nil { // touch page 1 at extent 2
		t.Fatal(err)
	}
	if err := s.Write(ps*2-4, []byte{1, 2, 3, 4}); err != nil { // grow page 1 to full extent
		t.Fatal(err)
	}
	s.Rollback()
	want := make([]byte, ps*2)
	copy(want, pat(ps+2, 1))
	if got := s.Contents(); !bytes.Equal(got, want) {
		t.Fatalf("rollback left grown-page bytes behind\ngot  %v\nwant %v", got, want)
	}
}

func ExampleSegment_Freeze() {
	tmpl := NewSegment(0, 4096)
	tmpl.SetContents([]byte("template state"))
	tmpl.Commit(nil)
	tmpl.Freeze()
	f := tmpl.Fork()
	f.Write(0, []byte("fork"))
	fmt.Printf("fork=%q template=%q privatized=%d\n",
		f.Contents()[:14], tmpl.Contents(), f.CowPages)
	// Output: fork="forklate state" template="template state" privatized=1
}
