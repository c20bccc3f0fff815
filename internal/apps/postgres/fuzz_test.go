package postgres

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"failtrans/internal/apps/apputil"
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

// FuzzNextField: apply's field splitter (apputil.NextField, which magic
// shares) yields exactly strings.Fields' fields, for any command text
// (Unicode space and invalid UTF-8 included), and apputil.ParseInt reads
// each field as strconv.ParseInt does.
func FuzzNextField(f *testing.F) {
	for _, s := range []string{
		"", " ", "insert 1 alpha", "  select\t42  ", "update 7 x\ny",
		"scan\v-3\f9\r", "a\u0085b c", " lead　trail ",
		"bad\xffutf8 \xc2", "\xc2\x85", "x​y", "count 1 5 extra fields",
		"select -9223372036854775808 +9223372036854775807 9223372036854775808",
		"scan 18446744073709551616 9223372036854775809x 99999999999999999999x - +",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		for f, rest := apputil.NextField([]byte(s)); len(f) > 0; f, rest = apputil.NextField(rest) {
			got = append(got, string(f))
			want, _ := strconv.ParseInt(string(f), 10, 64)
			if v := apputil.ParseInt(f); v != want {
				t.Fatalf("ParseInt(%q) = %d, strconv %d", f, v, want)
			}
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("nextField splits %q into %q, strings.Fields into %q", s, got, want)
		}
	})
}
