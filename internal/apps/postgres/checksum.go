package postgres

import (
	"encoding/binary"
	"hash/crc32"
)

// Page checksums are patched, not recomputed. The stored CRC is CRC-32
// (IEEE) over the page without its CRC field, and CRC-32 is affine: two
// messages of one length that differ in bytes [lo,hi) have checksums that
// differ by the raw CRC of those bytes' XOR carried through the message
// bytes behind them,
//
//	crc(new) = crc(old) ⊕ shift(raw(old[lo:hi]) ⊕ raw(new[lo:hi]), trailing)
//
// where raw is the CRC register run from zero without the final XOR
// (linear in its input), and shift multiplies by x^(8·trailing) modulo the
// polynomial. A mutator of a trusted page (crcOK) therefore rehashes only
// the bytes it wrote; an untrusted one recomputes in full, so a bit flip
// that bypassed the mutators is blessed by the next write exactly as a full
// recompute blesses it.

// msgLen is the length of the checksummed message: the page less its CRC
// field.
const msgLen = PageSize - 4

// crcPoly is the reflected CRC-32 (IEEE) polynomial. In a reflected
// register bit 31 is the coefficient of x^0 and bit 0 that of x^31.
const crcPoly = 0xedb88320

// mulx returns a·x modulo the polynomial.
func mulx(a uint32) uint32 { return a>>1 ^ crcPoly&-(a&1) }

// crcX4 folds back the four bits a multiplication by x^4 shifts out:
// a·x^4 = a>>4 ⊕ crcX4[a&15].
var crcX4 = func() (t [16]uint32) {
	for i := range t {
		t[i] = mulx(mulx(mulx(mulx(uint32(i)))))
	}
	return t
}()

// crcShift[t] is x^(8t) modulo the polynomial: multiplying a raw CRC by it
// appends t zero bytes to the CRC's message. A zero byte through the
// byte-wise table is that multiplication by x^8.
var crcShift = func() *[msgLen + 1]uint32 {
	t := new([msgLen + 1]uint32)
	t[0] = 1 << 31
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1]>>8 ^ crc32.IEEETable[t[i-1]&0xff]
	}
	return t
}()

// multmodp returns a·b modulo the polynomial, four bits of a at a time:
// Horner's rule over a's nibbles from the highest degree down, each step
// one x^4 shift and one lookup in the sixteen nibble multiples of b.
func multmodp(a, b uint32) uint32 {
	// m[n] is b times the nibble n, whose bit 3 is the coefficient of x^0.
	var m [16]uint32
	m[8] = b
	m[4] = mulx(b)
	m[2] = mulx(m[4])
	m[1] = mulx(m[2])
	for n := 3; n < 16; n++ {
		if low := n & -n; low != n {
			m[n] = m[n&^low] ^ m[low]
		}
	}
	var p uint32
	for k := 0; k < 32; k += 4 {
		p = p>>4 ^ crcX4[p&15] ^ m[a>>k&15]
	}
	return p
}

// rawCRC is the CRC register after b from a zero register, without the
// final XOR.
func rawCRC(b []byte) uint32 {
	return ^crc32.Update(^uint32(0), crc32.IEEETable, b)
}

// A crcPatch carries a page's checksum through one mutator's writes. Each
// write is bracketed by before, which records what its range holds, and
// after, which folds the range's change into the checksum; store writes the
// result. before must run immediately before its own write: where two
// writes of one mutator overlap (a tuple over its slot entry, on a corrupt
// page) a range recorded earlier counts the overlap twice.
type crcPatch struct {
	crc    uint32 // the checksum of the page as written so far
	ok     bool   // false: store recomputes the checksum in full
	lo, hi int    // the range being written
	raw    uint32 // rawCRC of the range before its write
}

// patchCRC starts a patch of p's checksum. It distrusts p until store, so a
// mutator that panics midway leaves a page the next mutator recomputes.
func (p *Page) patchCRC() crcPatch {
	c := crcPatch{crc: binary.LittleEndian.Uint32(p.Data[offCRC:]), ok: p.crcOK}
	p.crcOK = false
	return c
}

// before records bytes [lo,hi) of p ahead of their write, clamped to the
// page as copy clamps a write that runs past it. A write over the CRC field
// drops the patch: store recomputes.
func (c *crcPatch) before(p *Page, lo, hi int) {
	if !c.ok {
		return
	}
	lo, hi = min(lo, PageSize), min(hi, PageSize)
	if lo < offCRC+4 && hi > offCRC {
		c.ok = false
		return
	}
	c.lo, c.hi, c.raw = lo, hi, rawCRC(p.Data[lo:hi])
}

// after folds the write to the range before recorded into the checksum.
func (c *crcPatch) after(p *Page) {
	if !c.ok {
		return
	}
	d := c.raw ^ rawCRC(p.Data[c.lo:c.hi])
	if d == 0 {
		return
	}
	trailing := PageSize - c.hi
	if c.hi <= offCRC {
		trailing -= 4 // the CRC field lies behind the range but is not hashed
	}
	c.crc ^= multmodp(d, crcShift[trailing])
}

// store writes the patched checksum to p, or recomputes it in full when p
// was not trusted, and trusts p.
func (c *crcPatch) store(p *Page) {
	if !c.ok {
		p.UpdateCRC()
		return
	}
	binary.LittleEndian.PutUint32(p.Data[offCRC:], c.crc)
	p.crcOK = true
}
