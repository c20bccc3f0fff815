package postgres

import (
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeTuple: arbitrary bytes must decode or error, never panic, and
// a successful decode must re-encode consistently.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(EncodeTuple(42, []byte("value")))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, v, err := DecodeTuple(data)
		if err != nil {
			return
		}
		re := EncodeTuple(k, v)
		k2, v2, err := DecodeTuple(re)
		if err != nil || k2 != k || string(v2) != string(v) {
			t.Fatalf("re-decode mismatch: %d %q %v", k2, v2, err)
		}
	})
}

// FuzzPageRead: slot reads on a page with fuzzed contents must error or
// return, never panic (corrupted pages come off the simulated disk).
func FuzzPageRead(f *testing.F) {
	p := NewPage(1)
	p.Insert([]byte("hello"))
	f.Add(p.Data[:64], 0)
	f.Add(make([]byte, 64), 3)
	f.Fuzz(func(t *testing.T, prefix []byte, slot int) {
		var pg Page
		copy(pg.Data[:], prefix)
		_, _ = pg.Read(slot % 1024)
		_ = pg.FreeSpace()
		_ = pg.NSlots()
		_ = pg.LiveTuples()
		_, _ = pg.Compact()
	})
}

// FuzzNextField: apply's field splitter yields exactly strings.Fields'
// fields, for any command text (Unicode space and invalid UTF-8 included).
func FuzzNextField(f *testing.F) {
	for _, s := range []string{
		"", " ", "insert 1 alpha", "  select\t42  ", "update 7 x\ny",
		"scan\v-3\f9\r", "a\u0085b c", " lead　trail ",
		"bad\xffutf8 \xc2", "\xc2\x85", "x​y", "count 1 5 extra fields",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		for f, rest := nextField(s); f != ""; f, rest = nextField(rest) {
			got = append(got, f)
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("nextField splits %q into %q, strings.Fields into %q", s, got, want)
		}
	})
}
