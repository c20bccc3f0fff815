package postgres

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"failtrans/internal/apps/apputil"
	"failtrans/internal/dc"
	"failtrans/internal/kernel"
	"failtrans/internal/protocol"
	"failtrans/internal/sim"
	"failtrans/internal/stablestore"
)

// --- Page tests ---

func TestPageInsertRead(t *testing.T) {
	p := NewPage(7)
	if p.ID() != 7 {
		t.Errorf("ID = %d", p.ID())
	}
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(s1); string(got) != "hello" {
		t.Errorf("Read(s1) = %q", got)
	}
	if got, _ := p.Read(s2); string(got) != "world!" {
		t.Errorf("Read(s2) = %q", got)
	}
	if !p.VerifyCRC() {
		t.Error("checksum should hold after inserts")
	}
}

func TestPageDelete(t *testing.T) {
	p := NewPage(0)
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Read(s); err != nil || got != nil {
		t.Errorf("deleted slot Read = %q, %v", got, err)
	}
	if err := p.Delete(99); err == nil {
		t.Error("out-of-range delete must fail")
	}
}

func TestPageOverwrite(t *testing.T) {
	p := NewPage(0)
	s, _ := p.Insert([]byte("abcdef"))
	ok, err := p.Overwrite(s, []byte("xyz"))
	if err != nil || !ok {
		t.Fatalf("Overwrite = %v, %v", ok, err)
	}
	if got, _ := p.Read(s); string(got) != "xyz" {
		t.Errorf("Read = %q", got)
	}
	if ok, _ := p.Overwrite(s, []byte("waytoolongforslot")); ok {
		t.Error("oversized overwrite must report false")
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage(0)
	tuple := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.Insert(tuple); err != nil {
			break
		}
		n++
	}
	if n != 8 { // 8*1004 < 8178 < 9*1004
		t.Errorf("fit %d 1000-byte tuples, want 8", n)
	}
}

func TestPageReadOutOfRange(t *testing.T) {
	p := NewPage(0)
	if _, err := p.Read(0); err == nil {
		t.Error("read of nonexistent slot must fail")
	}
}

func TestPageCRCDetectsCorruption(t *testing.T) {
	p := NewPage(0)
	p.Insert([]byte("data"))
	p.Data[5000] ^= 1
	if p.VerifyCRC() {
		t.Error("corruption must break the checksum")
	}
}

func TestTupleCodec(t *testing.T) {
	tp := EncodeTuple(-42, []byte("value"))
	k, v, err := DecodeTuple(tp)
	if err != nil || k != -42 || string(v) != "value" {
		t.Errorf("decode = %d %q %v", k, v, err)
	}
	if _, _, err := DecodeTuple([]byte{1, 2}); err == nil {
		t.Error("short tuple must fail")
	}
	bad := EncodeTuple(1, []byte("abc"))
	bad[8] = 0xff // length overrun
	if _, _, err := DecodeTuple(bad[:11]); err == nil {
		t.Error("overrunning length must fail")
	}
}

// --- B-tree tests ---

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	if bt.Put(5, RID{1, 2}) != true {
		t.Error("first Put should report new")
	}
	if bt.Put(5, RID{3, 4}) != false {
		t.Error("second Put of same key should report replace")
	}
	rid, ok := bt.Get(5)
	if !ok || rid != (RID{3, 4}) {
		t.Errorf("Get = %v %v", rid, ok)
	}
	if _, ok := bt.Get(6); ok {
		t.Error("missing key should not be found")
	}
	if !bt.Delete(5) || bt.Delete(5) {
		t.Error("Delete semantics wrong")
	}
	if bt.Len() != 0 {
		t.Errorf("Len = %d", bt.Len())
	}
}

func TestBTreeManyKeysAndScan(t *testing.T) {
	bt := NewBTree()
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		bt.Put(int64(k), RID{Page: uint32(k), Slot: uint16(k)})
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d", bt.Len())
	}
	if err := bt.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// The engine's consistency check walks the whole index every time it
	// runs: its cost must not include a heap object per key.
	if allocs := testing.AllocsPerRun(10, func() { _ = bt.Check() }); allocs > 8 {
		t.Errorf("Check of %d keys allocates %.0f objects, want a constant few", n, allocs)
	}
	for k := 0; k < n; k++ {
		rid, ok := bt.Get(int64(k))
		if !ok || rid.Page != uint32(k) {
			t.Fatalf("Get(%d) = %v %v", k, rid, ok)
		}
	}
	got := bt.appendRange(nil, 100, 199)
	if len(got) != 100 || got[0].key != 100 || got[99].key != 199 || got[0].rid.Page != 100 {
		t.Errorf("appendRange returned %d keys [%v..%v]", len(got), got[0], got[len(got)-1])
	}
	// Appending extends what the buffer holds.
	if all := bt.appendRange(got, 0, int64(n)); len(all) != 100+n || all[100].key != 0 {
		t.Errorf("appendRange onto 100 entries returned %d", len(all))
	}
}

// TestBTreeMatchesMapModel is the core property test: random operations
// against the tree and a map oracle agree, and invariants hold throughout.
func TestBTreeMatchesMapModel(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree()
		model := make(map[int64]RID)
		for i := 0; i < 300; i++ {
			k := int64(rng.Intn(120))
			switch rng.Intn(3) {
			case 0:
				rid := RID{Page: uint32(rng.Intn(100)), Slot: uint16(rng.Intn(100))}
				bt.Put(k, rid)
				model[k] = rid
			case 1:
				got := bt.Delete(k)
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			default:
				rid, ok := bt.Get(k)
				wrid, wok := model[k]
				if ok != wok || (ok && rid != wrid) {
					return false
				}
			}
		}
		if bt.Len() != len(model) {
			return false
		}
		if err := bt.Check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Scan over everything must equal the sorted model.
		scanned := bt.appendRange(nil, -1000, 1000)
		if len(scanned) != len(model) {
			return false
		}
		for i, h := range scanned {
			if h.rid != model[h.key] || i > 0 && scanned[i-1].key >= h.key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeMarshalRoundTrip(t *testing.T) {
	bt := NewBTree()
	for k := 0; k < 500; k++ {
		bt.Put(int64(k*7%500), RID{Page: uint32(k), Slot: 1})
	}
	var e apputil.Enc
	bt.Marshal(&e)
	d := &apputil.Dec{B: e.B}
	bt2, err := UnmarshalBTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if bt2.Len() != bt.Len() {
		t.Fatalf("Len = %d vs %d", bt2.Len(), bt.Len())
	}
	if err := bt2.Check(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		a, aok := bt.Get(int64(k))
		b, bok := bt2.Get(int64(k))
		if aok != bok || a != b {
			t.Fatalf("key %d diverged", k)
		}
	}
}

// --- DB integration tests ---

func runDB(t *testing.T, queries ...string) (*sim.World, *DB) {
	t.Helper()
	db := New("table.dat")
	w := sim.NewWorld(5, db)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	w.Procs[0].Ctx().Inputs = Script(queries)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w, db
}

func TestDBInsertSelect(t *testing.T) {
	w, _ := runDB(t,
		"insert 1 alpha",
		"insert 2 beta",
		"select 1",
		"select 2",
		"select 3",
		"quit",
	)
	out := w.Outputs[0]
	if len(out) != 3 {
		t.Fatalf("outputs = %v", out)
	}
	if out[0] != "select 1: alpha" || out[1] != "select 2: beta" || !strings.Contains(out[2], "not found") {
		t.Errorf("outputs = %v", out)
	}
}

func TestDBUpdateDelete(t *testing.T) {
	w, _ := runDB(t,
		"insert 1 short",
		"update 1 xy",
		"select 1",
		"update 1 muchlongerthanbefore",
		"select 1",
		"delete 1",
		"select 1",
		"quit",
	)
	out := w.Outputs[0]
	if len(out) != 3 {
		t.Fatalf("outputs = %v", out)
	}
	if out[0] != "select 1: xy" || out[1] != "select 1: muchlongerthanbefore" || !strings.Contains(out[2], "not found") {
		t.Errorf("outputs = %v", out)
	}
}

func TestDBScan(t *testing.T) {
	var qs []string
	for i := 0; i < 20; i++ {
		qs = append(qs, fmt.Sprintf("insert %d v%d", i, i))
	}
	qs = append(qs, "scan 5 14", "quit")
	w, _ := runDB(t, qs...)
	out := w.Outputs[0]
	if len(out) != 1 || !strings.Contains(out[0], "10 tuples") {
		t.Errorf("outputs = %v", out)
	}
}

// TestDBSpillsAcrossPagesAndPool: enough data to overflow pages and evict
// from the pool; everything must remain readable (round trip through the
// simulated disk).
func TestDBSpillsAcrossPagesAndPool(t *testing.T) {
	var qs []string
	big := strings.Repeat("x", 500)
	const n = 200 // ~200*512B ≈ 100KB ≈ 13 pages > pool cap 8
	for i := 0; i < n; i++ {
		qs = append(qs, fmt.Sprintf("insert %d %s%d", i, big, i))
	}
	for i := 0; i < n; i += 17 {
		qs = append(qs, fmt.Sprintf("select %d", i))
	}
	qs = append(qs, "check", "quit")
	w, db := runDB(t, qs...)
	if w.Procs[0].Crashes != 0 {
		t.Fatal("database crashed")
	}
	if db.Pool.NumPages < 10 {
		t.Errorf("NumPages = %d, want >= 10", db.Pool.NumPages)
	}
	if db.Pool.Evictions == 0 || db.Pool.Misses == 0 {
		t.Errorf("pool never exercised: %d evictions, %d misses", db.Pool.Evictions, db.Pool.Misses)
	}
	for _, o := range w.Outputs[0] {
		if !strings.Contains(o, big[:20]) {
			t.Errorf("bad select result %q", o[:40])
		}
	}
}

func TestDBStateRoundTrip(t *testing.T) {
	_, db := runDB(t, "insert 1 a", "insert 2 b", "quit")
	img, err := db.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	db2 := &DB{}
	if err := db2.UnmarshalState(img); err != nil {
		t.Fatal(err)
	}
	if db2.Index.Len() != 2 || db2.Pool.NumPages != db.Pool.NumPages {
		t.Error("state diverged")
	}
	if err := db2.UnmarshalState([]byte{3}); err == nil {
		t.Error("garbage must fail")
	}
}

// TestDBUnderRecoveryWithStops: the database survives stop failures under
// CBNDVS and answers queries identically to the failure-free run.
func TestDBUnderRecoveryWithStops(t *testing.T) {
	var qs []string
	for i := 0; i < 30; i++ {
		qs = append(qs, fmt.Sprintf("insert %d value%d", i, i))
	}
	for i := 0; i < 30; i += 3 {
		qs = append(qs, fmt.Sprintf("select %d", i))
	}
	qs = append(qs, "quit")

	_, clean := runDB(t, qs...)
	cleanWorld := sim.NewWorld(5, clean) // only for output capture shape
	_ = cleanWorld
	wantRun, _ := runDB(t, qs...)
	want := strings.Join(wantRun.Outputs[0], "\n")

	for stopAt := 5; stopAt < 100; stopAt += 20 {
		db := New("table.dat")
		w := sim.NewWorld(5, db)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = Script(qs)
		d := dc.New(w, protocol.CBNDVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("stop@%d: run did not complete", stopAt)
			continue
		}
		// Recovery may duplicate an output; squash consecutive dups.
		var dedup []string
		for _, o := range w.Outputs[0] {
			if len(dedup) == 0 || dedup[len(dedup)-1] != o {
				dedup = append(dedup, o)
			}
		}
		if got := strings.Join(dedup, "\n"); got != want {
			t.Errorf("stop@%d: outputs diverged\n got: %.120s\nwant: %.120s", stopAt, got, want)
		}
	}
}

type faultAt struct {
	kind sim.FaultKind
	n    int
	seen int
	done bool
}

func (f *faultAt) At(p *sim.Proc, site string) sim.FaultKind {
	if f.done || site != "pg.op" {
		return sim.NoFault
	}
	f.seen++
	if f.seen < f.n {
		return sim.NoFault
	}
	f.done = true
	return f.kind
}

// TestDBFaults: each fault kind leads to a crash through the engine's own
// checks (or stays silent, which is a legal outcome the study discards).
func TestDBFaults(t *testing.T) {
	kinds := []sim.FaultKind{
		sim.HeapBitFlip, sim.OffByOne, sim.InitFault, sim.DeleteInstr, sim.DeleteBranch, sim.DestReg,
	}
	crashed := 0
	for _, kind := range kinds {
		db := New("table.dat")
		w := sim.NewWorld(5, db)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		var qs []string
		payload := strings.Repeat("y", 400)
		for i := 0; i < 80; i++ {
			qs = append(qs, fmt.Sprintf("insert %d %s", i, payload))
			if i%4 == 3 {
				qs = append(qs, fmt.Sprintf("select %d", i-1))
			}
		}
		qs = append(qs, "scan 0 1000", "check", "quit")
		w.Procs[0].Ctx().Inputs = Script(qs)
		// Ops run in blocks of five (four inserts, one select); 27 is
		// an insert with two heap pages already live.
		w.Faults = &faultAt{kind: kind, n: 27}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.Procs[0].Crashes > 0 {
			crashed++
		} else {
			t.Logf("%v did not crash postgres", kind)
		}
	}
	if crashed < 3 {
		t.Errorf("only %d/6 fault kinds crashed postgres", crashed)
	}
}

func TestPageCompact(t *testing.T) {
	p := NewPage(3)
	s0, _ := p.Insert([]byte("keep-a"))
	s1, _ := p.Insert([]byte("dead-b"))
	s2, _ := p.Insert([]byte("keep-c"))
	p.Delete(s1)
	freeBefore := p.FreeSpace()
	remap, err := p.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if p.NSlots() != 2 || p.LiveTuples() != 2 {
		t.Fatalf("after compact: %d slots, %d live", p.NSlots(), p.LiveTuples())
	}
	if p.FreeSpace() <= freeBefore {
		t.Error("compaction should reclaim space")
	}
	if !p.VerifyCRC() {
		t.Error("checksum must hold after compaction")
	}
	a, _ := p.Read(int(remap[uint16(s0)]))
	c, _ := p.Read(int(remap[uint16(s2)]))
	if string(a) != "keep-a" || string(c) != "keep-c" {
		t.Errorf("tuples after compact: %q %q", a, c)
	}
	if _, ok := remap[uint16(s1)]; ok {
		t.Error("dead slot must not be remapped")
	}
}

func TestDBVacuum(t *testing.T) {
	var qs []string
	for i := 0; i < 40; i++ {
		qs = append(qs, fmt.Sprintf("insert %d value-%d", i, i))
	}
	for i := 0; i < 40; i += 2 {
		qs = append(qs, fmt.Sprintf("delete %d", i))
	}
	qs = append(qs, "vacuum", "check")
	for i := 1; i < 40; i += 2 {
		qs = append(qs, fmt.Sprintf("select %d", i))
	}
	qs = append(qs, "scan 0 100", "quit")
	w, db := runDB(t, qs...)
	if w.Procs[0].Crashes != 0 {
		t.Fatal("vacuum run crashed")
	}
	out := w.Outputs[0]
	if !strings.Contains(out[0], "reclaimed 20 dead slots") {
		t.Errorf("vacuum output = %q", out[0])
	}
	// Every surviving key still resolves through the rewritten index.
	for i, o := range out[1 : len(out)-1] {
		want := fmt.Sprintf("select %d: value-%d", 2*i+1, 2*i+1)
		if o != want {
			t.Errorf("post-vacuum select = %q, want %q", o, want)
		}
	}
	if !strings.Contains(out[len(out)-1], "20 tuples") {
		t.Errorf("post-vacuum scan = %q", out[len(out)-1])
	}
	if err := db.CheckConsistency(); err != nil {
		t.Errorf("consistency after vacuum: %v", err)
	}
}

// TestDBVacuumUnderRecovery: a stop failure in the middle of vacuuming must
// not lose or duplicate tuples.
func TestDBVacuumUnderRecovery(t *testing.T) {
	var qs []string
	for i := 0; i < 30; i++ {
		qs = append(qs, fmt.Sprintf("insert %d v%d", i, i))
	}
	for i := 0; i < 30; i += 3 {
		qs = append(qs, fmt.Sprintf("delete %d", i))
	}
	qs = append(qs, "vacuum", "scan 0 100", "quit")

	clean, _ := runDB(t, qs...)
	want := clean.Outputs[0][len(clean.Outputs[0])-1]

	for stopAt := 30; stopAt < 80; stopAt += 10 {
		db := New("table.dat")
		w := sim.NewWorld(5, db)
		k := kernel.New()
		k.Clock = func() time.Duration { return w.Clock }
		w.OS = k
		w.Procs[0].Ctx().Inputs = Script(qs)
		d := dc.New(w, protocol.CBNDVS, stablestore.Rio)
		if err := d.Attach(); err != nil {
			t.Fatal(err)
		}
		w.ScheduleStop(0, stopAt)
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !w.AllDone() {
			t.Errorf("stop@%d: did not finish", stopAt)
			continue
		}
		got := w.Outputs[0][len(w.Outputs[0])-1]
		if got != want {
			t.Errorf("stop@%d: final scan %q, want %q", stopAt, got, want)
		}
	}
}

func TestDBCount(t *testing.T) {
	w, _ := runDB(t,
		"insert 1 a", "insert 2 b", "insert 3 c", "insert 9 d",
		"delete 2",
		"count 1 5",
		"quit",
	)
	out := w.Outputs[0]
	if len(out) != 1 || out[0] != "count [1,5]: 2" {
		t.Errorf("outputs = %v", out)
	}
}
