package kernel

import (
	"bytes"
	"testing"
)

// savedBlob builds a file-table blob the way SaveProcState lays one out:
// count, nextFD, then per entry fd, offset, path length and path.
func savedBlob(nextFD int64, entries ...fdEntry) []byte {
	b := AppendI64(nil, int64(len(entries)))
	b = AppendI64(b, nextFD)
	for _, e := range entries {
		b = AppendI64(b, int64(e.FD))
		b = AppendI64(b, e.Offset)
		b = AppendI64(b, int64(len(e.Path)))
		b = append(b, e.Path...)
	}
	return b
}

// FuzzRestoreProcState: no blob panics the kernel; whatever a blob lists —
// descriptors out of order, repeated or negative, lengths past its end —
// the restored file table is sorted by descriptor with no duplicates, and
// the blob SaveProcState then writes restores to a node that saves the
// same bytes again. The restore runs on a fork's node too, whose table
// lives in the array the fork's nodes share: it must not reach a sibling's.
func FuzzRestoreProcState(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(savedBlob(5, fdEntry{3, "a", 2}, fdEntry{4, "b", 0}))
	f.Add(savedBlob(9, fdEntry{7, "late", 1}, fdEntry{3, "early", 0}, fdEntry{7, "again", 4}))
	f.Add(savedBlob(-1, fdEntry{-2, "neg", -5}, fdEntry{0, "", 0}))
	f.Add(savedBlob(3, fdEntry{3, "truncated", 0})[:40])
	f.Fuzz(func(t *testing.T, blob []byte) {
		tmpl := New()
		tmpl.WriteFile(0, "a", []byte("aaaa"))
		for pid := 0; pid < 2; pid++ {
			if _, _, err := tmpl.Call(pid, "open", [][]byte{[]byte("a"), {1}}); err != nil {
				t.Fatal(err)
			}
		}
		sibling := string(tmpl.SaveProcState(1))
		k := tmpl.ForkOS(tmpl.Clock).(*Kernel)
		k.RestoreProcState(0, blob)
		fds := k.served(0).fds
		for i := 1; i < len(fds); i++ {
			if fds[i-1].FD >= fds[i].FD {
				t.Fatalf("restored file table out of order or repeated at %d: %v", i, fds)
			}
		}
		if got := string(k.SaveProcState(1)); got != sibling {
			t.Fatalf("restoring pid 0 changed pid 1's file table:\n got %x\nwant %x", got, sibling)
		}
		saved := append([]byte(nil), k.SaveProcState(0)...)
		again := New()
		again.RestoreProcState(0, saved)
		if got := again.SaveProcState(0); !bytes.Equal(got, saved) {
			t.Fatalf("a saved file table does not restore to itself:\n got %x\nwant %x", got, saved)
		}
	})
}
