package vista

import (
	"bytes"
	"math/rand"
	"testing"

	"failtrans/internal/obs"
)

// nextImage draws the next checkpoint image of a random sequence: half the
// time a small edit of prev (so some pages compare clean), otherwise a fresh
// image; lengths wander across page boundaries in both directions (growth,
// tails shorter than the extent) and whole pages of zeros are common.
func nextImage(rng *rand.Rand, prev []byte, ps int) []byte {
	n := rng.Intn(7*ps + 1)
	img := make([]byte, n)
	if rng.Intn(2) == 0 {
		copy(img, prev)
		for k := rng.Intn(4); k > 0 && n > 0; k-- {
			img[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
	} else {
		for i := range img {
			if rng.Intn(3) > 0 {
				img[i] = byte(rng.Intn(256))
			}
		}
	}
	if n >= ps && rng.Intn(3) == 0 { // one page of zeros
		p := rng.Intn(n / ps)
		for i := p * ps; i < (p+1)*ps; i++ {
			img[i] = 0
		}
	}
	return img
}

// opReader hands out a FuzzSegment input one byte at a time, reading zeros
// past its end.
type opReader struct{ data []byte }

func (r *opReader) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// seedOps returns a FuzzSegment input of n random operations drawn from seed.
func seedOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 1+3*n)
	rng.Read(out)
	return out
}

// checkSegmentOps runs one FuzzSegment input. Its first byte picks the page
// size; each operation after it is an opcode byte and its arguments:
//
//   - commit (two opcodes in four): SetContents of the next image drawn by
//     nextImage from a two-byte seed, so images grow, shrink and end in zero
//     tails, then Commit;
//   - fork: seal the segment and carry on in a copy-on-write fork of it;
//   - read-back: Rollback into a reused buffer.
//
// The segment under test is checked after every operation against refSegment
// and against a twin that takes the same commits and is never forked: the
// contents, each commit's Stats (Pages must be the model's count of differing
// pages), SameContents both ways, and the last sealed template, which no
// later write of its fork may change.
func checkSegmentOps(t *testing.T, data []byte) {
	r := &opReader{data}
	ps := 16 << (r.next() % 4)
	seg, twin := NewSegment(0, ps), NewSegment(0, ps)
	var twinM obs.VistaMetrics
	twin.Metrics = &twinM
	ref := &refSegment{}
	var img, buf, tmplImg []byte
	var tmpl *Segment
	var dirtied, rollbacks int64
	for step := 0; len(r.data) > 0; step++ {
		switch op := r.next(); op % 4 {
		case 0, 1:
			seed := int64(r.next())<<8 | int64(r.next())
			img = nextImage(rand.New(rand.NewSource(seed)), img, ps)
			want := ref.set(img, ps)
			reg := []byte{op, byte(step)}
			seg.SetContents(img)
			if got := seg.Contents(); !bytes.Equal(got, ref.mem) {
				t.Fatalf("step %d: SetContents(len=%d) left %d bytes that differ from the model's %d", step, len(img), len(got), len(ref.mem))
			}
			st := seg.Commit(reg)
			if wantSt := (Stats{Pages: want, Bytes: want*ps + len(reg)}); st != wantSt {
				t.Fatalf("step %d: Commit = %+v, model %+v", step, st, wantSt)
			}
			twin.SetContents(img)
			if tst := twin.Commit(reg); tst != st {
				t.Fatalf("step %d: never-forked twin's Commit = %+v, fork's %+v", step, tst, st)
			}
			dirtied += int64(want)
		case 2:
			tmpl, tmplImg = seg, seg.Contents()
			seg = seg.Fork()
			if !seg.SameContents(tmpl) {
				t.Fatalf("step %d: a fresh fork differs from its template", step)
			}
		default:
			if buf = seg.Rollback(buf[:0]); !bytes.Equal(buf, ref.mem) {
				t.Fatalf("step %d: Rollback read back %d bytes that differ from the committed %d", step, len(buf), len(ref.mem))
			}
			twin.Rollback(nil)
			rollbacks++
		}
		if !seg.SameContents(twin) || !twin.SameContents(seg) {
			t.Fatalf("step %d: segment and its never-forked twin differ", step)
		}
		if tmpl != nil && !bytes.Equal(tmpl.Contents(), tmplImg) {
			t.Fatalf("step %d: a fork's writes changed its sealed template", step)
		}
	}
	if twinM.PagesDirtied != dirtied || twinM.Commits != int64(twin.CommitCount) || twinM.Rollbacks != rollbacks {
		t.Fatalf("metrics %+v, want %d pages dirtied, %d commits, %d rollbacks", twinM, dirtied, twin.CommitCount, rollbacks)
	}
}

// FuzzSegment drives a segment through random commits, forks and read-backs
// and checks it against the reference model and a never-forked twin
// (checkSegmentOps). The seed inputs are eight 60-operation sequences and
// one of 2 000, the shapes of the model tests they replace.
func FuzzSegment(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seedOps(seed, 60))
	}
	f.Add(seedOps(7, 2000))
	f.Fuzz(checkSegmentOps)
}
