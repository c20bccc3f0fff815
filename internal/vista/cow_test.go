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

// TestCOWForkMatchesDeepForkOracle is the fork-isolation property test: a
// template segment is built up with random operations, deep-forked (the
// oracle, taken while still mutable), then frozen and COW-forked. The same
// randomized operation stream is applied to both forks; after every step
// their contents must be byte-identical, and the frozen template must never
// change.
func TestCOWForkMatchesDeepForkOracle(t *testing.T) {
	const ps = 32
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tmpl := NewSegment(0, ps)
		for i := 0; i < 50; i++ {
			randomOp(rng, tmpl, ps, i)
		}
		oracle := tmpl.Fork() // deep copy, taken while still mutable
		tmpl.Freeze()
		cow := tmpl.Fork()
		if cow.base == nil {
			t.Fatal("fork of a frozen segment is not a COW fork")
		}
		tmplBefore := tmpl.Contents()

		for i := 0; i < 400; i++ {
			opSeed := seed*1000 + int64(i)
			randomOp(rand.New(rand.NewSource(opSeed)), cow, ps, i)
			randomOp(rand.New(rand.NewSource(opSeed)), oracle, ps, i)
			got, want := cow.Contents(), oracle.Contents()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d iter %d: COW fork diverged from deep-fork oracle (len %d vs %d)", seed, i, len(got), len(want))
			}
		}
		if !bytes.Equal(tmpl.Contents(), tmplBefore) {
			t.Fatalf("seed %d: frozen template mutated by its fork", seed)
		}
		if cow.CowPages == 0 {
			t.Fatalf("seed %d: fork privatized no pages across 400 random mutations", seed)
		}
	}
}

// TestCOWForksConcurrentNeverAlias runs N concurrent COW forks of one
// frozen template, each mutating independently, and checks that no fork's
// writes leak into another fork or into the template: every fork must end
// byte-identical to a serial deep-fork oracle given the same operations.
func TestCOWForksConcurrentNeverAlias(t *testing.T) {
	const ps = 64
	const forks = 8
	tmpl := NewSegment(0, ps)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 80; i++ {
		randomOp(rng, tmpl, ps, i)
	}
	oracles := make([]*Segment, forks)
	for i := range oracles {
		oracles[i] = tmpl.Fork() // deep copies while mutable
	}
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
		r := rand.New(rand.NewSource(int64(i) * 7919))
		for op := 0; op < 300; op++ {
			randomOp(r, oracles[i], ps, op)
		}
		if !bytes.Equal(results[i], oracles[i].Contents()) {
			t.Errorf("fork %d diverged from its deep-fork oracle", i)
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

// TestDeepForkOfCOWForkMaterializes checks the remaining fork direction: a
// deep Fork taken from a live COW fork materializes the overlay-then-base
// view into an independent flat segment.
func TestDeepForkOfCOWForkMaterializes(t *testing.T) {
	const ps = 32
	tmpl := NewSegment(0, ps)
	tmpl.SetContents(pat(ps*3, 3))
	tmpl.Commit(nil)
	tmpl.Freeze()

	f := tmpl.Fork()
	if err := f.Write(ps+1, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	deep := f.Fork()
	if deep.base != nil {
		t.Fatal("deep fork of a COW fork still chains to a base")
	}
	if !bytes.Equal(deep.Contents(), f.Contents()) {
		t.Fatal("materialized deep fork != COW fork contents")
	}
	deep.SetContents(pat(ps*2, 5))
	if bytes.Equal(deep.Contents(), f.Contents()) {
		t.Fatal("deep fork still aliases the COW fork")
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
