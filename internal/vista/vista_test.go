package vista

import (
	"bytes"
	"testing"
	"testing/quick"

	"failtrans/internal/obs"
)

// TestRollbackRestoresCommittedState: Rollback appends exactly the image the
// last Commit made durable to the caller's buffer and counts one rollback;
// the register file stays as Commit saved it.
func TestRollbackRestoresCommittedState(t *testing.T) {
	s := NewSegment(0, 256)
	m := &obs.VistaMetrics{}
	s.Metrics = m
	img := pat(600, 1)
	s.SetContents(img)
	s.Commit([]byte("regs1"))
	got := s.Rollback([]byte("head:"))
	if string(got[:5]) != "head:" || !bytes.Equal(got[5:], img) {
		t.Errorf("Rollback appended %d bytes that differ from the committed image", len(got)-5)
	}
	if m.Rollbacks != 1 {
		t.Errorf("Metrics.Rollbacks = %d, want 1", m.Rollbacks)
	}
	if string(s.savedReg) != "regs1" {
		t.Errorf("registers = %q", s.savedReg)
	}
}

// TestDirtyPageAccounting: a commit reports the pages its own image dirtied,
// each once however many of its bytes changed, plus the register bytes.
func TestDirtyPageAccounting(t *testing.T) {
	s := NewSegment(0, 256)
	img := make([]byte, 4*256)
	s.SetContents(img)
	s.Commit(nil)
	img[0], img[10] = 1, 2    // same page
	img[255], img[256] = 3, 4 // straddles pages 0 and 1
	s.SetContents(img)
	if st := s.Commit([]byte{9}); st != (Stats{Pages: 2, Bytes: 2*256 + 1}) {
		t.Errorf("Commit stats = %+v", st)
	}
	if st := s.Commit(nil); st.Pages != 0 {
		t.Errorf("a commit with no new image reported %d pages", st.Pages)
	}
}

func TestSetContentsDiffsPages(t *testing.T) {
	s := NewSegment(0, 256)
	img := make([]byte, 1024)
	for i := range img {
		img[i] = byte(i)
	}
	s.SetContents(img)
	s.Commit(nil)

	// Change one byte in page 2 only.
	img2 := append([]byte(nil), img...)
	img2[600] ^= 0xff
	s.SetContents(img2)
	if !bytes.Equal(s.Contents(), img2) {
		t.Error("contents mismatch after SetContents")
	}
	if st := s.Commit(nil); st.Pages != 1 {
		t.Errorf("pages dirtied by a one-byte change = %d, want 1", st.Pages)
	}
}

func TestSetContentsShrinkZeroesTail(t *testing.T) {
	s := NewSegment(0, 256)
	s.SetContents(bytes.Repeat([]byte{0xaa}, 1000))
	s.Commit(nil)
	s.SetContents([]byte{1, 2, 3})
	s.Commit(nil)
	got := s.Contents()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Error("head not written")
	}
	for i := 3; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("stale byte at %d after shrinking SetContents", i)
		}
	}
}

func TestSetContentsIdenticalTouchesNothing(t *testing.T) {
	s := NewSegment(0, 256)
	img := bytes.Repeat([]byte{7}, 512)
	s.SetContents(img)
	s.Commit(nil)
	s.SetContents(img)
	if st := s.Commit(nil); st.Pages != 0 {
		t.Errorf("identical SetContents dirtied %d pages", st.Pages)
	}
}

func TestCommitCount(t *testing.T) {
	s := NewSegment(10, 0)
	s.Commit(nil)
	s.Commit(nil)
	if s.CommitCount != 2 {
		t.Errorf("CommitCount = %d", s.CommitCount)
	}
}

func TestDefaultPageSize(t *testing.T) {
	s := NewSegment(10, 0)
	if s.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d", s.PageSize())
	}
	if s.PageSize() != 4096 {
		t.Errorf("DefaultPageSize = %d, want 4096", s.PageSize())
	}
}

// TestSegmentMatchesModel runs FuzzSegment's check on 60-operation sequences
// from fresh random seeds, beyond the fixed seed corpus.
func TestSegmentMatchesModel(t *testing.T) {
	check := func(seed int64) bool {
		checkSegmentOps(t, seedOps(seed, 60))
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
