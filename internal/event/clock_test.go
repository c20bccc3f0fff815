package event

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestVCMerge(t *testing.T) {
	a := VC{1, 5, 0}
	b := VC{3, 2, 0}
	a.Merge(b)
	want := VC{3, 5, 0}
	if !slices.Equal(a, want) {
		t.Errorf("Merge = %v, want %v", a, want)
	}
}

func TestVCMergeShorterOther(t *testing.T) {
	a := VC{1, 5, 2}
	a.Merge(VC{9})
	if !slices.Equal(a, VC{9, 5, 2}) {
		t.Errorf("Merge with shorter clock = %v", a)
	}
}

func TestVCClone(t *testing.T) {
	a := VC{1, 2}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone must not alias the original")
	}
}

// randomVC generates small clocks so that related pairs occur often.
func randomVC(r *rand.Rand, n int) VC {
	v := NewVC(n)
	for i := range v {
		v[i] = r.Intn(3)
	}
	return v
}

func TestVCPartialOrderProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Antisymmetry: a≤b and b≤a imply a=b.
	anti := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 4), randomVC(r, 4)
		if a.LE(b) && b.LE(a) && !slices.Equal(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(anti, cfg); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	// Transitivity: a≤b and b≤c imply a≤c.
	trans := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVC(r, 4), randomVC(r, 4), randomVC(r, 4)
		if a.LE(b) && b.LE(c) && !a.LE(c) {
			return false
		}
		return true
	}
	if err := quick.Check(trans, cfg); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	// Merge is an upper bound of both inputs.
	ub := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 4), randomVC(r, 4)
		m := a.Clone()
		m.Merge(b)
		return a.LE(m) && b.LE(m)
	}
	if err := quick.Check(ub, cfg); err != nil {
		t.Errorf("merge upper bound: %v", err)
	}
}

// TestHBMatchesTransitiveClosure checks the vector-clock oracle against a
// brute-force transitive closure of (program order ∪ send→receive) on random
// traces.
func TestHBMatchesTransitiveClosure(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nproc := 2 + r.Intn(3)
		tr := NewTrace(nproc)
		var msgID int64
		type pending struct {
			msg  int64
			from int
		}
		var inflight []pending
		n := 5 + r.Intn(15)
		for i := 0; i < n; i++ {
			p := r.Intn(nproc)
			switch r.Intn(4) {
			case 0:
				tr.MustAppend(Event{ID: ID{P: p, I: -1}, Kind: Internal})
			case 1:
				msgID++
				to := (p + 1 + r.Intn(nproc-1)) % nproc
				tr.MustAppend(Event{ID: ID{P: p, I: -1}, Kind: Send, Msg: msgID, Peer: to})
				inflight = append(inflight, pending{msgID, p})
			case 2:
				if len(inflight) == 0 {
					tr.MustAppend(Event{ID: ID{P: p, I: -1}, Kind: Internal})
					continue
				}
				m := inflight[0]
				inflight = inflight[1:]
				tr.MustAppend(Event{ID: ID{P: p, I: -1}, Kind: Receive, Msg: m.msg, Peer: m.from})
			default:
				tr.MustAppend(Event{ID: ID{P: p, I: -1}, Kind: Visible})
			}
		}
		// Brute force closure.
		sz := len(tr.Events)
		adj := make([][]bool, sz)
		for i := range adj {
			adj[i] = make([]bool, sz)
		}
		lastOf := make(map[int]int)
		sendAt := make(map[int64]int)
		for i, e := range tr.Events {
			if j, ok := lastOf[e.ID.P]; ok {
				adj[j][i] = true
			}
			lastOf[e.ID.P] = i
			if e.Kind == Send {
				sendAt[e.Msg] = i
			}
			if e.Kind == Receive {
				if j, ok := sendAt[e.Msg]; ok {
					adj[j][i] = true
				}
			}
		}
		for k := 0; k < sz; k++ {
			for i := 0; i < sz; i++ {
				if !adj[i][k] {
					continue
				}
				for j := 0; j < sz; j++ {
					if adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		hb := NewHB(tr)
		for i := 0; i < sz; i++ {
			for j := 0; j < sz; j++ {
				got := hb.HappensBefore(tr.Events[i].ID, tr.Events[j].ID)
				if got != adj[i][j] {
					t.Logf("seed %d: HB(%v,%v)=%v, closure=%v", seed, tr.Events[i].ID, tr.Events[j].ID, got, adj[i][j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
