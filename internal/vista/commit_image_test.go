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

// commitPair is one segment committed through CommitImage and its oracle,
// an identical segment committed through SetContents then Commit.
type commitPair struct {
	fused, oracle   *Segment
	fusedM, oracleM obs.VistaMetrics
}

func newCommitPair(mk func() *Segment) *commitPair {
	c := &commitPair{fused: mk(), oracle: mk()}
	c.fused.Metrics, c.oracle.Metrics = &c.fusedM, &c.oracleM
	return c
}

// commit lays img into both segments and checks everything observable agrees.
func (c *commitPair) commit(t *testing.T, img, reg []byte) {
	t.Helper()
	got := c.fused.CommitImage(img, reg)
	c.oracle.SetContents(img)
	want := c.oracle.Commit(reg)
	if got != want {
		t.Fatalf("Stats = %+v, oracle %+v", got, want)
	}
	if !bytes.Equal(c.fused.Contents(), c.oracle.Contents()) {
		t.Fatal("Contents diverged from the SetContents+Commit oracle")
	}
	if c.fused.Size() != c.oracle.Size() || !bytes.Equal(c.fused.savedReg, c.oracle.savedReg) {
		t.Fatalf("size/registers = %d/%x, oracle %d/%x",
			c.fused.Size(), c.fused.savedReg, c.oracle.Size(), c.oracle.savedReg)
	}
	if c.fused.CowPages != c.oracle.CowPages || c.fused.CowBytes != c.oracle.CowBytes {
		t.Fatalf("COW cost = %d pages/%d bytes, oracle %d/%d",
			c.fused.CowPages, c.fused.CowBytes, c.oracle.CowPages, c.oracle.CowBytes)
	}
	if c.fused.LoggedBytes != c.oracle.LoggedBytes || c.fused.CommitCount != c.oracle.CommitCount {
		t.Fatalf("LoggedBytes/CommitCount = %d/%d, oracle %d/%d",
			c.fused.LoggedBytes, c.fused.CommitCount, c.oracle.LoggedBytes, c.oracle.CommitCount)
	}
	if c.fusedM != c.oracleM {
		t.Fatalf("metrics = %+v, oracle %+v", c.fusedM, c.oracleM)
	}
	if c.fused.DirtyPages() != 0 || len(c.fused.undo) != 0 {
		t.Fatal("CommitImage left a transaction open")
	}
}

// TestCommitImageMatchesSetContentsCommit is the equivalence property of the
// fused commit entry: over random image sequences, on flat segments, on COW
// forks of a frozen template (including forks that outgrow it) and on forks
// of a template that was itself a fork, CommitImage is indistinguishable from
// SetContents followed by Commit.
func TestCommitImageMatchesSetContentsCommit(t *testing.T) {
	const ps = 32
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var img []byte
		run := func(c *commitPair, steps int) {
			t.Helper()
			for i := 0; i < steps; i++ {
				img = nextImage(rng, img, ps)
				c.commit(t, img, []byte{byte(seed), byte(i)})
			}
		}

		flat := newCommitPair(func() *Segment { return NewSegment(0, ps) })
		run(flat, 60)

		// First generation: both sides fork the same frozen template. The
		// first image is forced past the template's extent (fork-then-grow).
		tmpl := flat.oracle
		tmpl.Freeze()
		gen1 := newCommitPair(tmpl.Fork)
		img = append(append([]byte(nil), img...), pat(2*ps+3, byte(seed))...)
		gen1.commit(t, img, nil)
		run(gen1, 60)
		if gen1.fused.CowPages == 0 {
			t.Fatalf("seed %d: fork privatized no pages", seed)
		}

		// Second generation: freeze a live fork (it materializes flat) and
		// fork that.
		gen1.fused.Freeze()
		gen2 := newCommitPair(gen1.fused.Fork)
		run(gen2, 60)
		if !bytes.Equal(tmpl.Contents(), flat.fused.Contents()) {
			t.Fatalf("seed %d: frozen template changed under its forks", seed)
		}
	}
}

// TestRollbackAfterCommitImageIsNoop: the fused commit leaves no undo log, so
// a rollback right after it restores nothing and returns its registers.
func TestRollbackAfterCommitImageIsNoop(t *testing.T) {
	s := NewSegment(0, 32)
	s.CommitImage(pat(100, 1), []byte("r1"))
	img := pat(150, 2)
	s.CommitImage(img, []byte("r2"))
	if reg := s.Rollback(); string(reg) != "r2" {
		t.Errorf("Rollback returned registers %q, want %q", reg, "r2")
	}
	if !bytes.Equal(s.Contents(), img) {
		t.Error("Rollback after CommitImage changed the committed image")
	}
	// And a transaction opened afterwards still rolls back to that image.
	if err := s.Write(3, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	s.Rollback()
	if !bytes.Equal(s.Contents(), img) {
		t.Error("Rollback did not restore the image CommitImage committed")
	}
}

// TestCommitImageInOpenTransactionPanics: the fused entry keeps no undo
// records, so it refuses to run with some already logged.
func TestCommitImageInOpenTransactionPanics(t *testing.T) {
	s := NewSegment(64, 32)
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("CommitImage inside an open transaction did not panic")
		}
	}()
	s.CommitImage([]byte{2}, nil)
}

// TestCommitImageAllocs pins the fused entry's allocation profile: a warmed
// flat segment commits with none, and a COW fork's first commit pays one
// buffer per page it privatizes plus the overlay index.
func TestCommitImageAllocs(t *testing.T) {
	img := make([]byte, 64*1024)
	seg := NewSegment(0, 4096)
	m := &obs.VistaMetrics{}
	seg.Metrics = m
	seg.CommitImage(img, nil)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		img[(i*4096+17)%len(img)] ^= 1
		seg.CommitImage(img, nil)
		i++
	}); n != 0 {
		t.Errorf("warmed flat CommitImage allocates %.1f times per run, want 0", n)
	}
	if m.PagesDirtied == 0 || m.HashHits == 0 {
		t.Errorf("metrics did not accumulate: %+v", *m)
	}

	seg.Freeze()
	const runs, dirty = 50, 3
	forks := make([]*Segment, runs+1) // AllocsPerRun makes one warm-up call
	for k := range forks {
		forks[k] = seg.Fork()
	}
	changed := append([]byte(nil), img...)
	for p := 0; p < dirty; p++ {
		changed[p*2*4096+5] ^= 0xFF
	}
	k := 0
	n := testing.AllocsPerRun(runs, func() {
		if st := forks[k].CommitImage(changed, nil); st.Pages != dirty {
			t.Fatalf("first fork commit dirtied %d pages, want %d", st.Pages, dirty)
		}
		k++
	})
	if n > dirty+1 {
		t.Errorf("first CommitImage on a COW fork allocates %.1f times, want at most %d (privatized pages + 1)", n, dirty+1)
	}
}
