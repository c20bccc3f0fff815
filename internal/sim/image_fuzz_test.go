package sim_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"failtrans/internal/apps/nvi"
	"failtrans/internal/apps/postgres"
	"failtrans/internal/kernel"
	"failtrans/internal/sim"
)

// imageProc returns process 0 of a one-program world with a kernel attached
// and session state worth losing: an input cursor, a send sequence number,
// a receive high-water mark and an open file.
func imageProc(t testing.TB, prog sim.Program) *sim.Proc {
	t.Helper()
	w := sim.NewWorld(1, prog)
	k := kernel.New()
	k.Clock = func() time.Duration { return w.Clock }
	w.OS = k
	if _, _, err := k.Call(0, "open", [][]byte{[]byte("session.dat"), {1}}); err != nil {
		t.Fatal(err)
	}
	p := w.Procs[0]
	p.InputCursor, p.SendSeq, p.RecvHW = 3, 5, []sim.RecvMark{{From: 1, Idx: 2}, {From: 4, Idx: 9}}
	return p
}

// sessionState renders everything RestoreCheckpointImage restores besides
// the program: the session counters and the kernel's per-process state.
func sessionState(p *sim.Proc) string {
	return fmt.Sprint(p.InputCursor, p.SendSeq, p.RecvHW, p.World.OS.SaveProcState(p.Index))
}

// image is a valid checkpoint image and a constructor for a zero program of
// its kind to restore into.
type image struct {
	img  []byte
	zero func() sim.Program
}

// validImages returns a checkpoint image of a mid-session editor and of a
// database with a few pages cached.
func validImages(t testing.TB) map[string]image {
	t.Helper()
	e := nvi.New("doc.txt", []string{"some text", "", "more"})
	e.ThinkTime = 0
	w := sim.NewWorld(1, e)
	w.Procs[0].Ctx().Inputs = nvi.Script("ihello\x1bjddkx:s/o/0/\n")
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	db := postgres.New("study.dat")
	dw := sim.NewWorld(1, db)
	dk := kernel.New()
	dk.Clock = func() time.Duration { return dw.Clock }
	dw.OS = dk
	dw.Procs[0].Ctx().Inputs = postgres.Script([]string{"insert 1 alpha", "insert 2 beta", "update 1 gamma", "select 2"})
	if err := dw.Run(); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]image)
	for name, c := range map[string]struct {
		prog sim.Program
		zero func() sim.Program
	}{
		"nvi":      {e, func() sim.Program { return &nvi.Editor{} }},
		"postgres": {db, func() sim.Program { return &postgres.DB{} }},
	} {
		img, err := imageProc(t, c.prog).CheckpointImage(false)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = image{img, c.zero}
	}
	return out
}

// overflowImages are the hostile header words: the two length words that
// used to wrap the bounds arithmetic — a highwater count of 2^60 (times 16
// wraps to 0) and a state length of MaxInt64 (plus the offset wraps
// negative) — and two well-formed images whose high-water senders repeat
// (4, 4) or descend (4, 1), which a map once merged, last one winning.
func overflowImages() [][]byte {
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	header := append([]byte{0}, append(word(3), word(5)...)...) // mode, cursor, send sequence
	hugeHW := append(append([]byte(nil), header...), word(1<<60)...)
	hugeHW = append(hugeHW, make([]byte, 64)...)
	hugeApp := append(append([]byte(nil), header...), word(0)...)
	hugeApp = append(append(hugeApp, word(1<<63-1)...), make([]byte, 64)...)
	marks := func(senders ...uint64) []byte {
		img := append(append([]byte(nil), header...), word(uint64(len(senders)))...)
		for i, s := range senders {
			img = append(append(img, word(s)...), word(uint64(i+2))...)
		}
		return append(append(img, word(0)...), word(0)...) // empty state, empty kernel blob
	}
	return [][]byte{hugeHW, hugeApp, marks(4, 4), marks(4, 1)}
}

// TestRestoreCheckpointImageHostile: the overflow images, and a valid image
// cut at every byte, are refused with an error before anything is restored;
// high-water senders out of order are refused as such.
func TestRestoreCheckpointImageHostile(t *testing.T) {
	for name, v := range validImages(t) {
		p := imageProc(t, v.zero())
		want := sessionState(p)
		var hostile [][]byte
		for n := 0; n < len(v.img); n++ {
			hostile = append(hostile, v.img[:n])
		}
		overflow := overflowImages()
		for i, img := range append(hostile, overflow...) {
			err := p.RestoreCheckpointImage(img)
			if err == nil {
				t.Fatalf("%s: hostile image %d of %d (%d bytes) restored without an error", name, i, len(hostile)+len(overflow), len(img))
			}
			// The last two overflow images are the misordered ones.
			if i >= len(hostile)+len(overflow)-2 && !errors.Is(err, sim.ErrImageSenderOrder) {
				t.Errorf("%s: misordered senders refused with %v, want ErrImageSenderOrder", name, err)
			}
			if got := sessionState(p); got != want {
				t.Fatalf("%s: refused image %d left the session at %s, was %s", name, i, got, want)
			}
		}
		if err := p.RestoreCheckpointImage(v.img); err != nil {
			t.Fatalf("%s: the whole image: %v", name, err)
		}
	}
}

// FuzzRestoreCheckpointImage: arbitrary bytes are either refused — with the
// session counters and the kernel untouched — or restore a process whose
// image restores to itself. Never a panic.
func FuzzRestoreCheckpointImage(f *testing.F) {
	images := validImages(f)
	for _, v := range images {
		f.Add(v.img)
		f.Add(v.img[:len(v.img)/2])
	}
	for _, img := range overflowImages() {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, v := range images {
			p := imageProc(t, v.zero())
			before := sessionState(p)
			if err := p.RestoreCheckpointImage(data); err != nil {
				if after := sessionState(p); after != before {
					t.Fatalf("%s: a refused image left the session at %s, was %s", name, after, before)
				}
				continue
			}
			img, err := p.CheckpointImage(false)
			if err != nil {
				t.Fatalf("%s: marshalling the restored process: %v", name, err)
			}
			if err := p.RestoreCheckpointImage(img); err != nil {
				t.Fatalf("%s: the restored process's own image is refused: %v", name, err)
			}
			if again, _ := p.CheckpointImage(false); !bytes.Equal(again, img) {
				t.Fatalf("%s: restore∘marshal is not the identity on a restored process", name)
			}
		}
	})
}
