package postgres

import (
	"bytes"
	"encoding/binary"
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

// hostileCounts returns images whose count words the rest of the input
// cannot hold: an index leaf of 2^40 keys, an interior node whose 20 keys'
// children are missing, and an empty index followed by a pool of 2^40
// cached pages. at is where the pool's encoding starts in the last (0 in
// the others).
func hostileCounts() (imgs [][]byte, at []int) {
	word := func(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
	bigLeaf := append(word(nil, 1), 1)
	bigLeaf = append(word(bigLeaf, 1<<40), make([]byte, 64)...)
	lostChildren := append(word(nil, 20), 0)
	lostChildren = append(word(lostChildren, 20), make([]byte, 20*8+30)...)
	var e apputil.Enc
	NewBTree().Marshal(&e)
	pool := len(e.B)
	e.Int(8)
	e.I64(3)
	e.I64(0)
	e.Int(1 << 40)
	e.B = append(e.B, make([]byte, 64)...)
	return [][]byte{bigLeaf, lostChildren, e.B}, []int{0, 0, pool}
}

// TestUnmarshalHostileCounts: a node size or a cached-page count the input
// cannot hold is refused, before anything is allocated for it.
func TestUnmarshalHostileCounts(t *testing.T) {
	imgs, at := hostileCounts()
	for i, img := range imgs {
		base := apputil.Dec{B: img}
		base.Skip(at[i])
		decode := func() error {
			d := base
			if at[i] > 0 {
				_, err := UnmarshalPool(&d)
				return err
			}
			_, err := UnmarshalBTree(&d)
			return err
		}
		if err := decode(); err == nil {
			t.Errorf("hostile image %d decodes", i)
		}
		if n := testing.AllocsPerRun(10, func() { _ = decode() }); n != 0 {
			t.Errorf("refusing hostile image %d allocates %.0f times, want 0", i, n)
		}
	}
}

// FuzzUnmarshalState: arbitrary bytes are either refused or restore a
// database whose image restores to itself, byte for byte. Restoring into a
// fork never writes its template.
func FuzzUnmarshalState(f *testing.F) {
	tmpl, valid, _, _ := frozenTemplate(f, forkSuffixes[0])
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte{})
	imgs, _ := hostileCounts()
	for _, img := range imgs {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		db := p.(*DB)
		err = db.UnmarshalState(data)
		if image(t, tmpl) != valid {
			t.Fatal("restoring into a fork changed its template")
		}
		if err != nil {
			return
		}
		img, err := db.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		var twin DB
		if err := twin.UnmarshalState(img); err != nil {
			t.Fatalf("the restored database's own image is refused: %v", err)
		}
		if again, _ := twin.AppendState(nil); !bytes.Equal(again, img) {
			t.Fatal("restore∘marshal is not the identity on a restored database")
		}
	})
}
