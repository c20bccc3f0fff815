package vista

import (
	"reflect"
	"testing"

	"failtrans/internal/fieldguard"
)

// TestSameContents: a fork of a sealed segment holds its template's
// contents until a commit changes a byte, the extent or the register file;
// privatized pages that hold the same bytes still compare equal.
func TestSameContents(t *testing.T) {
	img := make([]byte, 3*DefaultPageSize+100)
	for i := range img {
		img[i] = byte(i * 7)
	}
	reg := []byte{1, 2, 3}
	commit := func(s *Segment, img, reg []byte) {
		s.SetContents(img)
		s.Commit(reg)
	}
	tmpl := NewSegment(0, 0)
	commit(tmpl, img, reg)
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
		{"recommitted unchanged", func(f *Segment) { commit(f, img, reg) }, true},
		{"page privatized and restored", func(f *Segment) {
			commit(f, changed(10), reg)
			commit(f, img, reg)
		}, true},
		{"one byte", func(f *Segment) { commit(f, changed(2*DefaultPageSize+5), reg) }, false},
		{"last byte", func(f *Segment) { commit(f, changed(len(img)-1), reg) }, false},
		{"extent", func(f *Segment) { commit(f, append(append([]byte(nil), img...), 0), reg) }, false},
		{"registers", func(f *Segment) { commit(f, img, []byte{1, 2, 4}) }, false},
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
		"pageSize": c, "size": c, "mem": c, "savedReg": c,
		"pending":     "zero outside a SetContents→Commit pair, which nothing compares inside",
		"frozen":      "copy-on-write bookkeeping: a sealed template and its fork differ only here",
		"base":        cow,
		"overlay":     cow,
		"CommitCount": stats,
		"LoggedBytes": stats,
		"CowPages":    stats,
		"CowBytes":    stats,
		"Metrics":     "observability sink",
	})
}
