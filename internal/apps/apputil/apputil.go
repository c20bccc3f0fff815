// Package apputil holds helpers shared by the workload applications: a
// compact binary state codec for checkpoint marshaling and the corruption
// primitives the fault injector's seven fault types are built from.
package apputil

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"unicode"
	"unicode/utf8"
)

// Enc is an append-only binary encoder for checkpoint images.
type Enc struct{ B []byte }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.B = binary.LittleEndian.AppendUint64(e.B, uint64(v)) }

// Int appends an int.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64.
func (e *Enc) F64(v float64) { e.B = binary.LittleEndian.AppendUint64(e.B, mathFloat64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(v []byte) {
	e.Int(len(v))
	e.B = append(e.B, v...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(v string) {
	e.Int(len(v))
	e.B = append(e.B, v...)
}

// U32s appends a count-prefixed []uint32, one 8-byte word per element (the
// format of a loop of I64 calls), growing the buffer at most once for the
// whole run.
func (e *Enc) U32s(v []uint32) {
	e.Int(len(v))
	if need := len(e.B) + 8*len(v); need > cap(e.B) {
		grown := make([]byte, len(e.B), max(need, 2*cap(e.B)))
		copy(grown, e.B)
		e.B = grown
	}
	for _, x := range v {
		e.B = binary.LittleEndian.AppendUint64(e.B, uint64(x))
	}
}

// Bool appends a bool.
func (e *Enc) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// Dec decodes what Enc produced.
type Dec struct {
	B   []byte
	pos int
	Err error
}

// Decode errors are static: a checkpoint image can be hostile (the faults
// under study corrupt them), restore sits on the rollback path, and a
// malformed image aborts recovery whatever the message says.
var (
	ErrOverrun   = errors.New("apputil: decode overrun")
	ErrNegLength = errors.New("apputil: negative length")
)

// need reports whether n more bytes are available, setting Err if not. The
// comparison is against the remaining length, so a length word near MaxInt64
// cannot wrap past the check.
func (d *Dec) need(n int) bool {
	if d.Err != nil {
		return false
	}
	if n < 0 {
		d.Err = ErrNegLength
		return false
	}
	if n > len(d.B)-d.pos {
		d.Err = ErrOverrun
		return false
	}
	return true
}

// Skip advances past n bytes without decoding them.
func (d *Dec) Skip(n int) {
	if d.need(n) {
		d.pos += n
	}
}

// Count reads the length of a sequence whose elements take at least elem
// bytes each, rejecting one the rest of the input cannot hold — so a caller
// may allocate for the count before decoding the elements.
func (d *Dec) Count(elem int) int {
	n := d.Int()
	if d.Err == nil && n < 0 {
		d.Err = ErrNegLength
	}
	if d.Err == nil && n > (len(d.B)-d.pos)/elem {
		d.Err = ErrOverrun
	}
	if d.Err != nil {
		return 0
	}
	return n
}

// Pos returns the offset of the next byte to decode.
func (d *Dec) Pos() int { return d.pos }

// I64 reads an int64.
func (d *Dec) I64() int64 {
	if !d.need(8) {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.B[d.pos:]))
	d.pos += 8
	return v
}

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 {
	if !d.need(8) {
		return 0
	}
	v := mathFloat64frombits(binary.LittleEndian.Uint64(d.B[d.pos:]))
	d.pos += 8
	return v
}

// Bytes reads a length-prefixed byte slice (copied).
func (d *Dec) Bytes() []byte {
	n := d.Int()
	if !d.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.B[d.pos:])
	d.pos += n
	return out
}

// BytesView reads a length-prefixed byte slice as a view of the input, not
// a copy: capacity-clamped, so an append to it cannot reach the bytes that
// follow. It is for input that never changes while the view is held, such
// as a delivered message's payload; a negative or overlong length sets Err
// and returns nil.
func (d *Dec) BytesView() []byte {
	n := d.Int()
	if !d.need(n) {
		return nil
	}
	v := d.B[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return v
}

// BytesInto reads a length-prefixed byte slice into dst's backing array,
// reallocating only when dst is too small — the reuse form of Bytes for
// restore paths that decode into long-lived buffers every rollback.
func (d *Dec) BytesInto(dst []byte) []byte {
	n := d.Int()
	if !d.need(n) {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	copy(dst, d.B[d.pos:])
	d.pos += n
	return dst
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// StrReuse reads a length-prefixed string, returning cur itself when the
// decoded bytes match it — strings like filenames rarely change between
// checkpoints, so the steady-state restore allocates nothing for them.
func (d *Dec) StrReuse(cur string) string {
	n := d.Int()
	if !d.need(n) {
		return ""
	}
	b := d.B[d.pos : d.pos+n]
	d.pos += n
	if string(b) == cur { // compiler-recognized comparison: no allocation
		return cur
	}
	return string(b)
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if !d.need(1) {
		return 0
	}
	v := d.B[d.pos]
	d.pos++
	return v
}

// Bool reads a bool.
func (d *Dec) Bool() bool {
	if !d.need(1) {
		return false
	}
	v := d.B[d.pos] != 0
	d.pos++
	return v
}

// NextField returns the first field of s and what follows it, splitting
// around runs of white space exactly as strings.Fields does; f is empty when
// s holds no field. Both are views of s: a command is parsed where it lies.
func NextField(s []byte) (f, rest []byte) {
	i := skipField(s, 0, true)
	j := skipField(s, i, false)
	return s[i:j:j], s[j:]
}

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipField returns the offset of the first rune at or after i that is not
// white space (space true) or that is (space false), as unicode.IsSpace
// classifies it; invalid UTF-8 is not space. ASCII bytes are classified
// without decoding.
func skipField(s []byte, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += n
	}
	return i
}

// ParseInt parses a decimal command argument to the value
// strconv.ParseInt(string(s), 10, 64) returns, ignoring its error: a
// malformed argument (a missing one included) is 0, and an out-of-range one
// saturates. Like strconv, it reads the digits as a uint64 and stops at the
// first malformed or overflowing one, whichever comes first. It reads s in
// place.
func ParseInt(s []byte) int64 {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			n = math.MaxUint64 // out of range: no later byte is looked at
			break
		}
		n = n*10 + d
	}
	const limit = 1 << 63 // the magnitude of math.MinInt64
	switch {
	case neg && n >= limit:
		return math.MinInt64
	case neg:
		return -int64(n)
	case n >= limit:
		return math.MaxInt64
	default:
		return int64(n)
	}
}

// FlipBit flips bit `bit` (mod the slice's size) in buf; no-op on empty
// buffers. It is the corruption primitive behind the bit-flip fault types.
func FlipBit(buf []byte, bit uint64) {
	if len(buf) == 0 {
		return
	}
	bit %= uint64(len(buf) * 8)
	buf[bit/8] ^= 1 << (bit % 8)
}

// Checksum is the integrity checksum the applications' consistency checks
// use (the paper's §2.6 mitigation: "compute a checksum over some data").
func Checksum(bufs ...[]byte) uint32 {
	h := crc32.NewIEEE()
	for _, b := range bufs {
		h.Write(b)
	}
	return h.Sum32()
}

func mathFloat64bits(f float64) uint64 { return math.Float64bits(f) }

func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }
