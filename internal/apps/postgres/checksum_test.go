package postgres

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"failtrans/internal/apps/apputil"
)

// multmodpBitwise is the bit-serial a·b modulo the CRC-32 polynomial (zlib's
// multmodp): one bit of a at a time, from x^0 up.
func multmodpBitwise(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ 0xedb88320
		} else {
			b >>= 1
		}
	}
	return p
}

// TestMultmodpMatchesBitwise: the 4-bit window multiply is the bit-serial
// one, and the shift table appends zero bytes to a CRC's message.
func TestMultmodpMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][2]uint32{{0, 0}, {1 << 31, 0xdeadbeef}, {0xdeadbeef, 1 << 31}, {^uint32(0), ^uint32(0)}, {1, 1}}
	for range 10000 {
		cases = append(cases, [2]uint32{rng.Uint32(), rng.Uint32()})
	}
	for _, c := range cases {
		if got, want := multmodp(c[0], c[1]), multmodpBitwise(c[0], c[1]); got != want {
			t.Fatalf("multmodp(%#x, %#x) = %#x, bit-serial %#x", c[0], c[1], got, want)
		}
	}
	msg := make([]byte, 40+msgLen)
	rng.Read(msg[:40])
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 100, 4093, msgLen} {
		got := multmodp(rawCRC(msg[:40]), crcShift[n])
		if want := rawCRC(msg[:40+n]); got != want {
			t.Errorf("shift by %d zero bytes: %#x, want %#x", n, got, want)
		}
	}
}

// A crcTwin runs one op sequence on two pages: p patches its checksum; ref
// is distrusted before every op, so its mutators take the full-recompute
// path, and its checksum is recomputed after every mutator that wrote — the
// rule every mutator followed before checksums were patched — and never
// after a flip.
type crcTwin struct {
	t      testing.TB
	p, ref *Page
	tuple  []byte
}

// run applies one mutator to both pages, failing when they disagree on
// whether it wrote or how it panicked.
func (tw *crcTwin) run(name string, mutate func(p *Page) bool) {
	tw.t.Helper()
	got, gotPanic := tryMutate(tw.p, mutate)
	tw.ref.crcOK = false
	want, wantPanic := tryMutate(tw.ref, mutate)
	if want && wantPanic == "" {
		binary.LittleEndian.PutUint32(tw.ref.Data[offCRC:], tw.ref.computeCRC())
	}
	if got != want || gotPanic != wantPanic {
		tw.t.Fatalf("%s: wrote %v panic %q, recomputing twin wrote %v panic %q", name, got, gotPanic, want, wantPanic)
	}
}

func tryMutate(p *Page, mutate func(p *Page) bool) (wrote bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return mutate(p), ""
}

// check fails unless both pages hold the same bytes, checksum included, and
// a trusted page's checksum matches its contents.
func (tw *crcTwin) check(step int, op string) {
	tw.t.Helper()
	if tw.p.Data != tw.ref.Data {
		i := 0
		for tw.p.Data[i] == tw.ref.Data[i] {
			i++
		}
		tw.t.Fatalf("step %d (%s): pages differ from byte %d (CRC %08x, recomputed twin %08x)", step, op, i,
			binary.LittleEndian.Uint32(tw.p.Data[offCRC:]), binary.LittleEndian.Uint32(tw.ref.Data[offCRC:]))
	}
	if tw.p.crcOK && !tw.p.VerifyCRC() {
		tw.t.Fatalf("step %d (%s): trusted page fails its checksum", step, op)
	}
}

// fill returns a tuple of n bytes patterned by seed.
func (tw *crcTwin) fill(n, seed int) []byte {
	tw.tuple = tw.tuple[:0]
	for i := range n {
		tw.tuple = append(tw.tuple, byte(seed+i*7))
	}
	return tw.tuple
}

// runPageOps interprets ops three bytes at a time — an op and a 16-bit
// argument — on a crcTwin, checking it after every op.
func runPageOps(t testing.TB, ops []byte) {
	tw := &crcTwin{t: t, p: NewPage(3), ref: NewPage(3)}
	for k := 0; k+3 <= len(ops); k += 3 {
		a := int(ops[k+1]) | int(ops[k+2])<<8
		var name string
		switch ops[k] % 10 {
		case 0, 1:
			name = "Insert"
			tuple := tw.fill(a%600, k)
			tw.run(name, func(p *Page) bool { _, err := p.Insert(tuple); return err == nil })
		case 2:
			name = "Delete"
			slot := a%(tw.p.NSlots()+2) - 1
			tw.run(name, func(p *Page) bool { return p.Delete(slot) == nil })
		case 3:
			name = "Overwrite"
			slot, tuple := (a>>8)%(tw.p.NSlots()+1), tw.fill(a&0xff, k)
			tw.run(name, func(p *Page) bool { ok, err := p.Overwrite(slot, tuple); return ok && err == nil })
		case 4:
			name = "Compact"
			tw.run(name, func(p *Page) bool { _, err := p.Compact(); return err == nil })
		case 5:
			// DeleteBranch's drift: the upper boundary moves past the tuples
			// it guards, and past the page end on a fresh page.
			name = "setUpper drift"
			for _, p := range []*Page{tw.p, tw.ref} {
				p.setUpper(p.upper() + 64)
				p.UpdateCRC()
			}
		case 6:
			name = "flip"
			bit := uint64(headerLen*8 + a*17%((PageSize-headerLen)*8))
			tw.p.flipBit(bit)
			tw.ref.flipBit(bit)
		case 7:
			// A flip aimed at the slot directory, so a slot points into
			// the slot array or off the page.
			name = "slot flip"
			bit := uint64(headerLen*8 + a%(max(tw.p.NSlots(), 1)*slotLen*8))
			tw.p.flipBit(bit)
			tw.ref.flipBit(bit)
		case 8:
			name = "Marshal round trip"
			bp := NewPool(1)
			id := tw.p.ID()
			bp.pages[id], bp.lru = tw.p, []uint32{id}
			e := &apputil.Enc{}
			bp.Marshal(e)
			np, err := UnmarshalPool(&apputil.Dec{B: e.B})
			if err != nil {
				t.Fatalf("step %d: %v", k/3, err)
			}
			tw.p = np.pages[id]
		case 9:
			name = "Pool.own fork"
			bp := NewPool(1)
			id := tw.p.ID()
			bp.pages[id], bp.lru = tw.p, []uint32{id}
			bp.seal()
			tw.p = bp.fork().own(id)
		}
		tw.check(k/3, name)
	}
}

// randomPageOps returns n random ops. One in five is an insert, so pages
// fill, drift past their end and are corrupted while they hold tuples.
func randomPageOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 3*n)
	rng.Read(ops)
	return ops
}

// TestPageChecksumMatchesRecompute: after every step of seeded sequences of
// mutators, drifts, flips, round trips and forks, the patched checksum is
// the bytes a full recompute after every mutator writes.
func TestPageChecksumMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for seed := range 300 {
		ops := randomPageOps(rng, 400)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPageOps(t, ops) })
		if t.Failed() {
			return
		}
	}
}

// FuzzPageChecksum: any op sequence keeps the patched checksum equal to a
// full recompute's.
func FuzzPageChecksum(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		f.Add(randomPageOps(rng, 60))
	}
	f.Add([]byte{5, 0, 0, 0, 40, 0, 0, 80, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runPageOps(t, ops) })
}

// TestPageCRCPatchTraps pins the cases that break a patched checksum: a
// range before the CRC field (the header) hashes four fewer trailing
// bytes, an insert after the upper boundary drifted past the page end
// writes only what fits, a tuple overwritten onto its own slot entry is two
// overlapping writes, and a mutator that panics after a write leaves the
// checksum stale.
func TestPageCRCPatchTraps(t *testing.T) {
	t.Run("header", func(t *testing.T) {
		runPageOps(t, []byte{0, 20, 0})
	})
	t.Run("drift past the end", func(t *testing.T) {
		// A long tuple is clamped by copy; a short one starts past the
		// end, and copy panics before it writes.
		runPageOps(t, []byte{5, 0, 0, 0, 100, 0})
		runPageOps(t, []byte{5, 0, 0, 0, 10, 0})
	})
	t.Run("overlap", func(t *testing.T) {
		tw := newFilledTwin(t)
		// Slot 2 points at its own entry; a recompute trusts the page.
		tw.aimSlot(2, headerLen+2*slotLen)
		tw.run("Delete", func(p *Page) bool { return p.Delete(0) == nil })
		tw.check(0, "Delete")
		tuple := tw.fill(40, 9)
		tw.run("Overwrite", func(p *Page) bool { ok, err := p.Overwrite(2, tuple); return ok && err == nil })
		tw.check(1, "Overwrite")
		if !tw.p.crcOK {
			t.Error("the overlapping overwrite was not patched")
		}
	})
	t.Run("panic midway", func(t *testing.T) {
		tw := newFilledTwin(t)
		// Overwrite the header through slot 0: a full slot array, whose
		// next entry straddles the page end, and room for a tuple.
		tw.aimSlot(0, offNSlots)
		tw.run("Delete", func(p *Page) bool { return p.Delete(1) == nil })
		header := tw.fill(40, 0)
		binary.LittleEndian.PutUint16(header[0:], maxSlots)
		binary.LittleEndian.PutUint16(header[2:], 100)
		binary.LittleEndian.PutUint16(header[4:], 8000)
		tw.run("Overwrite", func(p *Page) bool { ok, err := p.Overwrite(0, header); return ok && err == nil })
		tw.check(0, "Overwrite")
		// The insert writes its tuple and panics in its slot entry: the
		// checksum is stale, and the next mutator must recompute it.
		tuple := tw.fill(10, 1)
		tw.run("Insert", func(p *Page) bool { _, err := p.Insert(tuple); return err == nil })
		tw.check(1, "Insert")
		if tw.p.crcOK {
			t.Fatal("the insert did not panic midway")
		}
		tw.run("Delete", func(p *Page) bool { return p.Delete(2) == nil })
		tw.check(2, "Delete")
	})
}

// newFilledTwin returns a crcTwin whose pages hold three 40-byte tuples.
func newFilledTwin(t *testing.T) *crcTwin {
	tw := &crcTwin{t: t, p: NewPage(3), ref: NewPage(3)}
	for i := range 3 {
		tuple := tw.fill(40, i)
		tw.run("Insert", func(p *Page) bool { _, err := p.Insert(tuple); return err == nil })
	}
	return tw
}

// aimSlot points slot i of both pages at off, through bit flips.
func (tw *crcTwin) aimSlot(i, off int) {
	base := headerLen + i*slotLen
	for _, p := range []*Page{tw.p, tw.ref} {
		cur, _ := p.slot(i)
		for b := range 16 {
			if (cur^off)>>b&1 != 0 {
				p.flipBit(uint64(base*8 + b))
			}
		}
	}
}

// TestPageMutatorsAllocateNothing pins the hot paths' allocation budget: a
// patched insert, delete and overwrite and a query field split allocate
// nothing.
func TestPageMutatorsAllocateNothing(t *testing.T) {
	tmpl := NewPage(1)
	tuple := EncodeTuple(42, []byte("forty-two"))
	for range 3 {
		if _, err := tmpl.Insert(tuple); err != nil {
			t.Fatal(err)
		}
	}
	p := new(Page)
	cmd := []byte(" insert\t42 forty-two")
	for name, f := range map[string]func(){
		"Insert":    func() { *p = *tmpl; p.Insert(tuple) },
		"Delete":    func() { *p = *tmpl; p.Delete(1) },
		"Overwrite": func() { *p = *tmpl; p.Overwrite(1, tuple[:12]) },
		"NextField": func() {
			op, rest := apputil.NextField(cmd)
			arg1, rest := apputil.NextField(rest)
			arg2, _ := apputil.NextField(rest)
			if len(op) == 0 || len(arg1) == 0 || len(arg2) == 0 || apputil.ParseInt(arg1) != 42 {
				t.Fatal("NextField lost a field")
			}
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
	if !p.crcOK || !p.VerifyCRC() {
		t.Error("the patched page is not trusted or fails its checksum")
	}
}

// TestCheckCachedNamesLRUFirst: with two corrupt cached pages, the check
// names the least recently used of them, every time.
func TestCheckCachedNamesLRUFirst(t *testing.T) {
	bp := NewPool(8)
	for _, id := range []uint32{4, 1, 6, 2, 5} {
		p := NewPage(id)
		if _, err := p.Insert([]byte("tuple")); err != nil {
			t.Fatal(err)
		}
		if err := bp.install(nil, p); err != nil {
			t.Fatal(err)
		}
	}
	bp.pages[2].flipBit(PageSize * 4)
	bp.pages[6].flipBit(PageSize * 4)
	for range 50 {
		err := bp.CheckCached()
		if err == nil || !strings.Contains(err.Error(), "page 6 ") {
			t.Fatalf("CheckCached = %v, want page 6, the first corrupt page in LRU order", err)
		}
	}
}
