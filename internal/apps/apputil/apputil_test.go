package apputil

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.Int(-42)
	e.I64(1 << 60)
	e.F64(3.14159)
	e.Bytes([]byte("payload"))
	e.Str("string")
	e.Bool(true)
	e.Bool(false)
	e.B = append(e.B, 0xAB)

	d := Dec{B: e.B}
	if d.Int() != -42 || d.I64() != 1<<60 || d.F64() != 3.14159 {
		t.Error("numeric round trip failed")
	}
	if string(d.Bytes()) != "payload" || d.Str() != "string" {
		t.Error("bytes/string round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool round trip failed")
	}
	if d.Byte() != 0xAB {
		t.Error("byte round trip failed")
	}
	if d.Err != nil {
		t.Errorf("unexpected decode error: %v", d.Err)
	}
}

func TestDecOverrun(t *testing.T) {
	d := Dec{B: []byte{1, 2}}
	if d.I64(); d.Err == nil {
		t.Error("short I64 must set Err")
	}
	d2 := Dec{B: (&Enc{}).B}
	if d2.Bytes(); d2.Err == nil {
		t.Error("empty Bytes must set Err")
	}
	// Negative length.
	var e Enc
	e.Int(-5)
	d3 := Dec{B: e.B}
	if d3.Bytes(); d3.Err == nil {
		t.Error("negative length must set Err")
	}
	// Errors are sticky.
	if d3.Int(); d3.Err == nil {
		t.Error("Err must stay set")
	}
}

func TestF64SpecialValues(t *testing.T) {
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), -0.0, math.SmallestNonzeroFloat64} {
		var e Enc
		e.F64(v)
		d := Dec{B: e.B}
		if got := d.F64(); got != v {
			t.Errorf("F64(%v) round trip = %v", v, got)
		}
	}
	var e Enc
	e.F64(math.NaN())
	d := Dec{B: e.B}
	if !math.IsNaN(d.F64()) {
		t.Error("NaN must survive")
	}
}

func TestFlipBit(t *testing.T) {
	buf := []byte{0x00, 0x00}
	FlipBit(buf, 0)
	if buf[0] != 0x01 {
		t.Errorf("bit 0 flip = %02x", buf[0])
	}
	FlipBit(buf, 9)
	if buf[1] != 0x02 {
		t.Errorf("bit 9 flip = %02x", buf[1])
	}
	// Wraps modulo size; never panics on empty.
	FlipBit(buf, 1_000_003)
	FlipBit(nil, 7)
}

func TestChecksum(t *testing.T) {
	a := Checksum([]byte("hello"), []byte("world"))
	b := Checksum([]byte("helloworld"))
	if a != b {
		t.Error("checksum must be over the concatenation")
	}
	if Checksum([]byte("x")) == Checksum([]byte("y")) {
		t.Error("different data should differ (overwhelmingly)")
	}
}

// TestCodecProperty: random value sequences round-trip.
func TestCodecProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		kinds := make([]int, n)
		ints := make([]int64, n)
		blobs := make([][]byte, n)
		var e Enc
		for i := 0; i < n; i++ {
			kinds[i] = r.Intn(3)
			switch kinds[i] {
			case 0:
				ints[i] = r.Int63() - r.Int63()
				e.I64(ints[i])
			case 1:
				blob := make([]byte, r.Intn(64))
				r.Read(blob)
				blobs[i] = blob
				e.Bytes(blob)
			default:
				ints[i] = int64(r.Intn(2))
				e.Bool(ints[i] == 1)
			}
		}
		d := Dec{B: e.B}
		for i := 0; i < n; i++ {
			switch kinds[i] {
			case 0:
				if d.I64() != ints[i] {
					return false
				}
			case 1:
				got := d.Bytes()
				if string(got) != string(blobs[i]) {
					return false
				}
			default:
				if d.Bool() != (ints[i] == 1) {
					return false
				}
			}
		}
		return d.Err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBytesViewAliasesClamped: BytesView returns the encoded bytes in place,
// capacity-clamped, so appending to the view copies instead of overwriting
// the word behind it; a negative length fails like Bytes.
func TestBytesViewAliasesClamped(t *testing.T) {
	var e Enc
	e.Bytes([]byte("page"))
	e.Int(9)
	d := Dec{B: e.B}
	v := d.BytesView()
	if string(v) != "page" || cap(v) != len(v) || &v[0] != &e.B[8] {
		t.Fatalf("view %q (cap %d) is not the clamped encoded bytes", v, cap(v))
	}
	_ = append(v, 'x')
	if d.Int() != 9 || d.Err != nil {
		t.Errorf("the word after the view was disturbed: Err %v", d.Err)
	}
	var neg Enc
	neg.Int(-1)
	d = Dec{B: neg.B}
	if v := d.BytesView(); v != nil || !errors.Is(d.Err, ErrNegLength) {
		t.Errorf("negative length: view %v, Err %v, want nil and ErrNegLength", v, d.Err)
	}
}

// TestDecLengthNearMaxInt: a length word near MaxInt64 behind an already
// decoded word must fail the bounds check, not wrap it and reach make.
func TestDecLengthNearMaxInt(t *testing.T) {
	var e Enc
	e.Int(7)
	e.I64(math.MaxInt64)
	e.B = append(e.B, "tail"...)
	for name, read := range map[string]func(d *Dec){
		"Bytes":     func(d *Dec) { d.Bytes() },
		"BytesInto": func(d *Dec) { d.BytesInto(nil) },
		"BytesView": func(d *Dec) { d.BytesView() },
		"StrReuse":  func(d *Dec) { d.StrReuse("") },
		"Skip":      func(d *Dec) { d.Skip(d.Int()) },
		"Count":     func(d *Dec) { d.Count(1) },
	} {
		d := Dec{B: e.B}
		if d.Int() != 7 {
			t.Fatal("first word")
		}
		read(&d)
		if !errors.Is(d.Err, ErrOverrun) {
			t.Errorf("%s of a MaxInt64 length: Err = %v, want ErrOverrun", name, d.Err)
		}
	}
}

// TestU32sMatchesI64Loop: the bulk append writes what the element loop wrote,
// and Skip and Count walk it.
func TestU32sMatchesI64Loop(t *testing.T) {
	sums := []uint32{0, 1, math.MaxUint32, 0xdeadbeef}
	var loop, bulk Enc
	loop.Int(len(sums))
	for _, s := range sums {
		loop.I64(int64(s))
	}
	bulk.B = []byte("prefix")
	bulk.U32s(sums)
	if string(bulk.B) != "prefix"+string(loop.B) {
		t.Errorf("U32s = %x, want %x behind the prefix", bulk.B, loop.B)
	}
	d := Dec{B: loop.B}
	if n := d.Count(8); n != len(sums) {
		t.Fatalf("Count = %d, want %d", n, len(sums))
	}
	d.Skip(8 * len(sums))
	if d.Err != nil || d.Pos() != len(loop.B) {
		t.Errorf("after Skip: pos %d of %d, Err %v", d.Pos(), len(loop.B), d.Err)
	}
	if d.Skip(1); !errors.Is(d.Err, ErrOverrun) {
		t.Errorf("Skip past the end: Err = %v, want ErrOverrun", d.Err)
	}
	short := Dec{B: loop.B[:16]}
	if n := short.Count(8); n != 0 || !errors.Is(short.Err, ErrOverrun) {
		t.Errorf("Count of %d elements with one left = %d, Err %v", len(sums), n, short.Err)
	}
}
