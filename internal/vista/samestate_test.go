package vista

import (
	"reflect"
	"testing"

	"failtrans/internal/fieldguard"
)

// TestSameContents: a fork of a sealed segment holds its template's
// contents until a commit changes a byte, the extent or the register file,
// or a transaction is open; privatized pages that hold the same bytes still
// compare equal.
func TestSameContents(t *testing.T) {
	img := make([]byte, 3*DefaultPageSize+100)
	for i := range img {
		img[i] = byte(i * 7)
	}
	reg := []byte{1, 2, 3}
	tmpl := NewSegment(0, 0)
	tmpl.CommitImage(img, reg)
	tmpl.Freeze()
	changed := func(i int) []byte {
		c := append([]byte(nil), img...)
		c[i] ^= 1
		return c
	}
	cases := []struct {
		name   string
		mutate func(f *Segment)
		same   bool
	}{
		{"untouched", func(*Segment) {}, true},
		{"recommitted unchanged", func(f *Segment) { f.CommitImage(img, reg) }, true},
		{"page privatized and restored", func(f *Segment) {
			f.CommitImage(changed(10), reg)
			f.CommitImage(img, reg)
		}, true},
		{"one byte", func(f *Segment) { f.CommitImage(changed(2*DefaultPageSize+5), reg) }, false},
		{"last byte", func(f *Segment) { f.CommitImage(changed(len(img)-1), reg) }, false},
		{"extent", func(f *Segment) { f.CommitImage(append(append([]byte(nil), img...), 0), reg) }, false},
		{"registers", func(f *Segment) { f.CommitImage(img, []byte{1, 2, 4}) }, false},
		{"open transaction", func(f *Segment) {
			if err := f.Write(0, img[:1]); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, c := range cases {
		f := tmpl.Fork()
		c.mutate(f)
		if got := f.SameContents(tmpl); got != c.same {
			t.Errorf("%s: SameContents = %v, want %v", c.name, got, c.same)
		}
	}
}

// TestSameContentsCoversEveryField is the guard over Segment.SameContents:
// every field of Segment is compared or is listed here as behaviour-neutral,
// with the reason.
func TestSameContentsCoversEveryField(t *testing.T) {
	const (
		cow   = "copy-on-write representation: the page contents it yields are compared"
		stats = "statistics: read by reports, never by a commit or rollback"
	)
	c := fieldguard.Covered
	fieldguard.Check(t, reflect.TypeOf(Segment{}), map[string]string{
		"pageSize": c, "size": c, "mem": c, "undo": c, "savedReg": c,
		"dirty":       "mirrors undo, which must be empty on both sides",
		"nDirty":      "mirrors undo, which must be empty on both sides",
		"frozen":      "copy-on-write bookkeeping: a sealed template and its fork differ only here",
		"base":        cow,
		"overlay":     cow,
		"bufPool":     "scratch: recycled undo buffers",
		"CommitCount": stats,
		"LoggedBytes": stats,
		"CowPages":    stats,
		"CowBytes":    stats,
		"Metrics":     "observability sink",
	})
}
