package postgres

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"failtrans/internal/kernel"
	"failtrans/internal/sim"
)

// forkPrefix is the session a fork test's template runs before it is
// frozen: eight heap pages through a four-page pool, so the template has
// pages cached (some dirty, some clean) and pages only on disk.
func forkPrefix() []string {
	payload := strings.Repeat("p", 400)
	var qs []string
	for i := 0; i < 150; i++ {
		qs = append(qs, fmt.Sprintf("insert %d %s%d", i, payload, i))
	}
	return append(qs, "flush", "insert 150 tail", "update 3 short", "delete 141")
}

// forkSuffixes are what a fork test runs after the freeze: every mutation
// path — insert, update in place and by re-insert, delete, flush, vacuum —
// over pages the template cached and pages it left on disk. The first starts
// with an insert; the second flushes and vacuums pages the fork still
// shares; the third evicts the template's dirty pages and reads them back.
var forkSuffixes = [][]string{
	{
		"insert 151 a", "insert 152 b", "update 149 c", "select 148", "delete 147",
		"update 146 " + strings.Repeat("q", 500), "select 10", "update 11 d", "delete 12",
		"scan 0 200", "flush", "insert 153 e", "vacuum", "count 0 200", "select 146",
		"insert 154 f", "flush", "check", "quit",
	},
	{"flush", "vacuum", "insert 151 a", "update 150 b", "flush", "check", "quit"},
	{"scan 0 200", "select 3", "update 141 c", "select 150", "insert 151 d", "check", "quit"},
}

// newForkWorld returns a world running the prefix then suffix.
func newForkWorld(t testing.TB, suffix []string) (*sim.World, *DB) {
	t.Helper()
	db := New("table.dat")
	db.PoolCap = 4
	w := sim.NewWorld(5, db)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script(append(forkPrefix(), suffix...))
	if err := w.Init(); err != nil {
		t.Fatal(err)
	}
	return w, db
}

// stepToOps steps w until db has finished its n-th query.
func stepToOps(t testing.TB, w *sim.World, db *DB, n int) {
	t.Helper()
	for db.Ops < n || db.Phase != phaseRead {
		if more, err := w.Step(); err != nil || !more {
			t.Fatalf("world stopped before query %d (err %v)", n, err)
		}
	}
}

func image(t testing.TB, db *DB) string {
	t.Helper()
	img, err := db.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return string(img)
}

// frozenTemplate runs the prefix, forks the world (which seals it) and
// returns the template's database, its image, and the fork.
func frozenTemplate(t testing.TB, suffix []string) (*DB, string, *sim.World, *DB) {
	t.Helper()
	w, db := newForkWorld(t, suffix)
	stepToOps(t, w, db, len(forkPrefix()))
	img := image(t, db)
	fw, err := w.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return db, img, fw, fw.Procs[0].Prog.(*DB)
}

// TestForkMatchesNeverForkedTwin: a fork of a sealed database, driven
// through each Table 1 fault kind (and none) plus vacuum and flush, has the
// image of a twin that ran the same session without ever being forked,
// after every step; the template's image never changes.
func TestForkMatchesNeverForkedTwin(t *testing.T) {
	kinds := []sim.FaultKind{
		sim.NoFault, sim.StackBitFlip, sim.HeapBitFlip, sim.DestReg, sim.InitFault,
		sim.DeleteBranch, sim.DeleteInstr, sim.OffByOne,
	}
	for i, suffix := range forkSuffixes {
		for _, kind := range kinds {
			for at := 1; at <= 6; at++ {
				twinRun(t, fmt.Sprintf("suffix %d, %v at op %d", i, kind, at), suffix, kind, at)
			}
		}
	}
}

// twinRun drives a fork and its never-forked twin through suffix with one
// fault of kind at its at-th query.
func twinRun(t *testing.T, name string, suffix []string, kind sim.FaultKind, at int) {
	t.Helper()
	tmpl, tmplImg, fw, fork := frozenTemplate(t, suffix)
	tw, twin := newForkWorld(t, suffix)
	stepToOps(t, tw, twin, len(forkPrefix()))
	fw.Faults = &faultAt{kind: kind, n: at}
	tw.Faults = &faultAt{kind: kind, n: at}
	for step := 0; ; step++ {
		moreF, errF := fw.Step()
		moreT, errT := tw.Step()
		if errF != nil || errT != nil || moreF != moreT {
			t.Fatalf("%s step %d: fork (%v, %v), twin (%v, %v)", name, step, moreF, errF, moreT, errT)
		}
		if image(t, fork) != image(t, twin) {
			t.Fatalf("%s: fork and twin images differ after step %d", name, step)
		}
		if !moreF {
			break
		}
	}
	if f, w := strings.Join(fw.Outputs[0], "\n"), strings.Join(tw.Outputs[0], "\n"); f != w {
		t.Errorf("%s: fork outputs\n%s\ntwin outputs\n%s", name, f, w)
	}
	if fw.Procs[0].Crashes != tw.Procs[0].Crashes {
		t.Errorf("%s: fork crashed %d times, twin %d", name, fw.Procs[0].Crashes, tw.Procs[0].Crashes)
	}
	if image(t, tmpl) != tmplImg {
		t.Errorf("%s: running the fork changed the template's image", name)
	}
}

// TestForkEncodesTemplateImage: a fork marshals exactly the template's
// image, into a sized buffer without allocating.
func TestForkEncodesTemplateImage(t *testing.T) {
	_, db := runDB(t, "insert 1 alpha", "insert 2 beta", "insert 3 gamma", "quit")
	img := image(t, db)
	p, err := db.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f := p.(*DB)
	buf := make([]byte, 0, 2*len(img))
	if n := testing.AllocsPerRun(10, func() {
		got, err := f.AppendState(buf)
		if err != nil || string(got) != img {
			t.Fatalf("fork marshals a different image (err %v)", err)
		}
	}); n != 0 {
		t.Errorf("a fork's AppendState into a sized buffer allocates %.1f times, want 0", n)
	}
	if image(t, db) != img {
		t.Error("forking changed the template's image")
	}
}

// TestSealedMutatorsPanic: every mutator of a page, and every index node
// write, sealed into a fork template panics before it writes.
func TestSealedMutatorsPanic(t *testing.T) {
	p := NewPage(7)
	if _, err := p.Insert([]byte("live tuple")); err != nil {
		t.Fatal(err)
	}
	p.sealed = true
	before := p.Data
	tmpl, tmplImg, _, _ := frozenTemplate(t, forkSuffixes[0])
	leaf := rightmostLeaf(tmpl.Index)
	for name, mutate := range map[string]func(){
		"Insert":    func() { p.Insert([]byte("x")) },
		"Delete":    func() { p.Delete(0) },
		"Overwrite": func() { p.Overwrite(0, []byte("y")) },
		"Compact":   func() { p.Compact() },
		"UpdateCRC": func() { p.UpdateCRC() },
		"setUpper":  func() { p.setUpper(100) },
		// A writer that skipped own would reach the template's nodes.
		"index root put": func() { tmpl.Index.root.put(75, RID{Page: 99}) },
		"index leaf put": func() { leaf.put(leaf.Keys[0], RID{Page: 99}) },
		"index remove":   func() { leaf.remove(leaf.Keys[0]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed template did not panic", name)
				}
			}()
			mutate()
		}()
	}
	if p.Data != before {
		t.Error("a panicking mutator wrote the sealed template")
	}
	if image(t, tmpl) != tmplImg {
		t.Error("a panicking index write changed the template's image")
	}
}

// TestUntouchedForkIsSmall: a fork that has not written anything costs its
// struct, its index header, its pool's page map and its LRU list — under
// 1 KiB, whatever the size of the pages and the index it shares.
func TestUntouchedForkIsSmall(t *testing.T) {
	tmpl, _, _, _ := frozenTemplate(t, forkSuffixes[0])
	const n = 100
	forks := make([]sim.Program, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range forks {
		f, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = f
	}
	runtime.ReadMemStats(&after)
	perFork := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B per fork of a template with %d cached pages and %d keys",
		perFork, len(tmpl.Pool.pages), tmpl.Index.Len())
	if perFork >= 1024 {
		t.Errorf("an untouched fork allocates %.0f B, want < 1 KiB", perFork)
	}
}

// indexNodes returns every node of t, in preorder.
func indexNodes(t *BTree) []*node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// TestIndexForkCopiesOnlyItsPath: a fork's insert copies exactly the nodes
// on the path from the root to the leaf it writes; every other node stays
// shared with the template, whose index stays sealed, valid and unchanged.
func TestIndexForkCopiesOnlyItsPath(t *testing.T) {
	tmpl, tmplImg, _, fork := frozenTemplate(t, forkSuffixes[0])
	depth := 0
	for n := tmpl.Index.root; !n.Leaf; n = n.Children[0] {
		depth++
	}
	if depth == 0 {
		t.Fatal("the template's index is a single leaf: no path to test")
	}
	shared := make(map[*node]bool)
	for _, n := range indexNodes(tmpl.Index) {
		if !n.sealed {
			t.Fatal("freezing left an index node unsealed")
		}
		shared[n] = true
	}
	const key = 75 // a key the template holds, in an interior leaf
	fork.Index.Put(key, RID{Page: 99, Slot: 7})
	copied := 0
	n := fork.Index.root
	for {
		if shared[n] || n.sealed {
			t.Errorf("the fork writes through a sealed node at depth %d", copied)
		}
		copied++
		if n.Leaf {
			break
		}
		n = n.Children[childIndex(n.Keys, key)]
	}
	if copied != depth+1 {
		t.Errorf("the insert's path has %d nodes, want %d", copied, depth+1)
	}
	private := 0
	for _, n := range indexNodes(fork.Index) {
		if !shared[n] {
			private++
		}
	}
	if private != copied {
		t.Errorf("the fork owns %d index nodes, want only the %d on the insert's path", private, copied)
	}
	if err := tmpl.Index.Check(); err != nil {
		t.Errorf("the template's index: %v", err)
	}
	if err := fork.Index.Check(); err != nil {
		t.Errorf("the fork's index: %v", err)
	}
	if rid, _ := tmpl.Index.Get(key); rid == (RID{Page: 99, Slot: 7}) {
		t.Error("the fork's insert reached the template's index")
	}
	if image(t, tmpl) != tmplImg {
		t.Error("the fork's insert changed the template's image")
	}
}

// rightmostLeaf returns t's rightmost leaf, only reading the path to it.
func rightmostLeaf(t *BTree) *node {
	n := t.root
	for !n.Leaf {
		n = n.Children[len(n.Children)-1]
	}
	return n
}

// TestForkIndexCopyHasRoom: a leaf a fork copies out takes the inserts that
// fill it up to its split without reallocating. The count is the minimum
// over three fresh forks: a stray runtime allocation only adds.
func TestForkIndexCopyHasRoom(t *testing.T) {
	tmpl, _, _, _ := frozenTemplate(t, forkSuffixes[0])
	fewest := uint64(math.MaxUint64)
	for range 3 {
		p, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fork := p.(*DB)
		next := int64(1000)
		put := func() {
			fork.Index.Put(next, RID{Page: 1, Slot: uint16(next)})
			next++
		}
		put()
		leaf := rightmostLeaf(fork.Index)
		if leaf == rightmostLeaf(tmpl.Index) {
			t.Fatal("the fork's insert wrote the template's rightmost leaf")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for len(leaf.Keys) < btreeOrder {
			put()
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
		if rightmostLeaf(fork.Index) != leaf {
			t.Error("filling a copied leaf replaced it")
		}
	}
	if fewest != 0 {
		t.Errorf("filling a copied leaf allocates %d times, want 0", fewest)
	}
}

// TestInsertCopiesOnePage: a fork's insert copies out exactly the page it
// writes; every other cached page stays shared with the template, which
// stays sealed.
func TestInsertCopiesOnePage(t *testing.T) {
	tmpl, _, fw, fork := frozenTemplate(t, forkSuffixes[0])
	if got := forkSuffixes[0][0]; !strings.HasPrefix(got, "insert ") {
		t.Fatalf("the suffix starts with %q, not an insert", got)
	}
	stepToOps(t, fw, fork, len(forkPrefix())+1)
	copied := 0
	for id, p := range fork.Pool.pages {
		if p != tmpl.Pool.pages[id] {
			copied++
			if p.sealed {
				t.Errorf("the fork's copy of page %d is sealed", id)
			}
		} else if !p.sealed {
			t.Errorf("shared page %d is not sealed", id)
		}
	}
	if copied != 1 {
		t.Errorf("an insert copied %d pages, want 1", copied)
	}
}

// TestFaultsWriteTheForksCopy: the two faults that corrupt the database
// behind its mutators' backs — a bit flip in a cached page and a nudged
// index slot — land in the fork's own copy, never in the template.
func TestFaultsWriteTheForksCopy(t *testing.T) {
	tmpl, tmplImg, _, fork := frozenTemplate(t, forkSuffixes[0])
	fork.flipCachedPageBit()
	fork.offByOneLastRID()
	if image(t, tmpl) != tmplImg {
		t.Error("a fault in the fork changed the template's image")
	}
	if image(t, fork) == tmplImg {
		t.Error("the faults did not change the fork")
	}
}

// TestForksRunConcurrently: two forks of one template run their sessions
// at once (go test -race reports any page, index or scratch buffer they
// write in common) and both print what a never-forked run prints.
func TestForksRunConcurrently(t *testing.T) {
	suffix := forkSuffixes[0]
	tw, _ := newForkWorld(t, suffix)
	if err := tw.Run(); err != nil {
		t.Fatal(err)
	}
	w, db := newForkWorld(t, suffix)
	stepToOps(t, w, db, len(forkPrefix()))
	if db.tuple == nil || db.hits != nil {
		t.Fatal("the template's scratch is not as this test expects")
	}
	forks := make([]*sim.World, 2)
	for i := range forks {
		fw, err := w.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forks[i] = fw
	}
	errs := make(chan error, len(forks))
	for _, fw := range forks {
		go func() { errs <- fw.Run() }()
	}
	for range forks {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := strings.Join(tw.Outputs[0], "\n")
	for i, fw := range forks {
		if got := strings.Join(fw.Outputs[0], "\n"); got != want {
			t.Errorf("fork %d printed\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestForksWriteIndexConcurrently: goroutines that each fork one frozen
// template and write their fork's index — inserts that split leaves and
// the root, deletes, and the off-by-one fault's direct leaf write — touch
// no byte in common (go test -race reports one) and leave the template's
// image and index as they were.
func TestForksWriteIndexConcurrently(t *testing.T) {
	tmpl, tmplImg, _, _ := frozenTemplate(t, forkSuffixes[0])
	const forks = 8
	errs := make(chan error, forks)
	for g := range forks {
		go func() {
			p, err := tmpl.Fork()
			if err != nil {
				errs <- err
				return
			}
			f := p.(*DB)
			// Each writer's first call writes a path the fork still
			// shares with the template.
			for k := int64(0); k < 200; k++ {
				f.offByOneLastRID()
				f.Index.Delete(k)
				f.Index.Put(1000*int64(g+1)+k, RID{Page: uint32(g), Slot: uint16(k)})
			}
			errs <- f.Index.Check()
		}()
	}
	for range forks {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if image(t, tmpl) != tmplImg {
		t.Error("writing the forks' indexes changed the template's image")
	}
	if err := tmpl.Index.Check(); err != nil {
		t.Errorf("the template's index: %v", err)
	}
}
