package magic

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDRC: the sweep counts what the all-pairs loop counts. Each tile is
// four int32 coordinates, shifted right by the input's first byte (mod 32)
// so most inputs crowd their tiles close enough to interact. Coordinates
// that fit in an int32 are the domain the sweep promises; Spacing cannot
// overflow there. Only the first 256 tiles count, so the quadratic oracle
// stays quick.
func FuzzDRC(f *testing.F) {
	tiles := func(shift byte, rs ...Rect) []byte {
		out := []byte{shift}
		for _, r := range rs {
			for _, v := range [4]int{r.X1, r.Y1, r.X2, r.Y2} {
				out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
			}
		}
		return out
	}
	f.Add(int8(6), tiles(0, Rect{10, 0, 0, 1}, Rect{5, 0, 3, 1}))
	f.Add(int8(2), tiles(0, Rect{0, 0, 4, 4}, Rect{5, 0, 9, 4}, Rect{20, 0, 24, 4}, Rect{3, 3, 3, 9}))
	f.Add(int8(12), tiles(24, Rect{-1 << 31, 0, 1<<31 - 1, 1 << 30}, Rect{1 << 29, -5, -1 << 29, 5}))
	f.Fuzz(func(t *testing.T, minSpacing int8, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := data[0] % 32
		var rects []Rect
		for data = data[1:]; len(data) >= 16 && len(rects) < 256; data = data[16:] {
			var c [4]int
			for k := range c {
				c[k] = int(int32(binary.LittleEndian.Uint32(data[4*k:])) >> shift)
			}
			rects = append(rects, Rect{c[0], c[1], c[2], c[3]})
		}
		l := New()
		l.MinSpacing = int(minSpacing)
		if got, want := l.spacingViolations(rects), drcAllPairs(rects, l.MinSpacing); got != want {
			t.Fatalf("MinSpacing %d: the sweep counts %d violations, all pairs %d, on %v", l.MinSpacing, got, want, rects)
		}
	})
}

// FuzzUnmarshalState: arbitrary bytes are either refused or restore a
// layout whose image restores to itself, byte for byte.
func FuzzUnmarshalState(f *testing.F) {
	_, l := run(f,
		"paint m1 0 0 10 10", "erase m1 2 2 3 3", "paint poly 1 1 5 5",
		"defcell c", "paint m1 0 0 2 2", "endcell", "place c 7 9", "drc m1", "quit")
	valid, err := l.MarshalState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var l Layout
		if l.UnmarshalState(data) != nil {
			return
		}
		img, err := l.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		var twin Layout
		if err := twin.UnmarshalState(img); err != nil {
			t.Fatalf("the restored layout's own image is refused: %v", err)
		}
		if again, _ := twin.MarshalState(); !bytes.Equal(again, img) {
			t.Fatal("restore∘marshal is not the identity on a restored layout")
		}
	})
}
