package statemachine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/event"
)

// fixedNDMachine is the golden machine for the FixedND doom rule: state
// "mid" has one colored fixed-ND out-edge (into the crash state) and one
// uncolored deterministic out-edge (into completion), so it is doomed by
// the "some colored fixed-ND event" rule while the "all events colored"
// rule does not fire. State "tmid" is the transient-ND contrast: the same
// shape with a transient-ND crash alternative is NOT doomed.
func fixedNDMachine() (*Machine, map[string]StateID) {
	names := map[string]StateID{"start": 0, "mid": 1, "tmid": 2, "done": 3, "crash": 4}
	m := New(len(names))
	m.AddEdge(Edge{From: 0, To: 1, ND: event.Deterministic, Label: "to-mid"})
	m.AddEdge(Edge{From: 0, To: 2, ND: event.Deterministic, Label: "to-tmid"})
	m.AddEdge(Edge{From: 1, To: 4, ND: event.FixedND, Label: "fixed-fail"})
	m.AddEdge(Edge{From: 1, To: 3, ND: event.Deterministic, Label: "ok"})
	m.AddEdge(Edge{From: 2, To: 4, ND: event.TransientND, Label: "transient-fail"})
	m.AddEdge(Edge{From: 2, To: 3, ND: event.Deterministic, Label: "ok"})
	m.MarkCrash(4)
	return m, names
}

func TestFixedNDDoomGolden(t *testing.T) {
	m, names := fixedNDMachine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	col := m.DangerousPaths()
	want := map[string]bool{
		"start": false,
		"mid":   true,  // colored fixed-ND out-edge dooms it despite the safe exit
		"tmid":  false, // transient-ND alternative can be escaped; not doomed
		"done":  false,
		"crash": true, // crash states are always commit-unsafe
	}
	for name, id := range names {
		if got := col.CommitUnsafeAt(id); got != want[name] {
			t.Errorf("CommitUnsafeAt(%s) = %v, want %v", name, got, want[name])
		}
	}

	p := NewVetoPolicyFromColoring("golden/fixednd", 7, names, col)
	for name, id := range names {
		if p.CommitUnsafe(name) != col.CommitUnsafeAt(id) {
			t.Errorf("policy verdict for %s diverges from coloring", name)
		}
	}
	if p.CommitUnsafe("never-mined") {
		t.Error("unknown state vetoed; evidence-free states must be safe")
	}
	var nilPol *VetoPolicy
	if nilPol.CommitUnsafe("mid") {
		t.Error("nil policy vetoed a commit")
	}
}

func TestVetoPolicyFileRoundTrip(t *testing.T) {
	m, names := fixedNDMachine()
	col := m.DangerousPaths()
	ps := []*VetoPolicy{
		NewVetoPolicyFromColoring("table1/nvi/CPVS", 42, names, col),
		{Key: "table1/postgres/CPVS", Runs: 3, Unsafe: map[string]bool{"c9": true, "a2/stop:1": true}},
	}
	var buf bytes.Buffer
	if err := WritePolicies(&buf, ps); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), VetoMagic+"\n") {
		t.Fatalf("missing magic line in %q", buf.String())
	}
	var buf2 bytes.Buffer
	if err := WritePolicies(&buf2, ps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two serializations of the same policies differ")
	}

	got, err := ReadPolicies(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("read %d policies, want %d", len(got), len(ps))
	}
	for i, want := range ps {
		p := got[i]
		if p.Key != want.Key || p.Runs != want.Runs {
			t.Errorf("policy %d header (%s, %d), want (%s, %d)", i, p.Key, p.Runs, want.Key, want.Runs)
		}
		for s := range want.Unsafe {
			if !p.CommitUnsafe(s) {
				t.Errorf("policy %d lost unsafe state %s", i, s)
			}
		}
		if len(p.Unsafe) != len(want.Unsafe) {
			t.Errorf("policy %d has %d unsafe states, want %d", i, len(p.Unsafe), len(want.Unsafe))
		}
	}
	if FindPolicy(got, "table1/postgres/CPVS") != got[1] {
		t.Error("FindPolicy missed an existing key")
	}
	if FindPolicy(got, "missing") != nil {
		t.Error("FindPolicy invented a policy")
	}
}

func TestVetoPolicyRejects(t *testing.T) {
	bad := []*VetoPolicy{{Key: "evil|key", Unsafe: map[string]bool{}}}
	if err := WritePolicies(&bytes.Buffer{}, bad); err == nil {
		t.Error("key containing '|' accepted")
	}
	bad = []*VetoPolicy{{Key: "k", Unsafe: map[string]bool{"s|t": true}}}
	if err := WritePolicies(&bytes.Buffer{}, bad); err == nil {
		t.Error("state containing '|' accepted")
	}
	for name, in := range map[string]string{
		"empty":           "",
		"bad magic":       "notveto v1\nmachine|k|1\n",
		"orphan unsafe":   VetoMagic + "\nunsafe|c1\n",
		"bad run count":   VetoMagic + "\nmachine|k|many\n",
		"unknown line":    VetoMagic + "\nwat|c1\n",
		"machine 2 field": VetoMagic + "\nmachine|k\n",
		"repeated key":    VetoMagic + "\nmachine|k|1\nunsafe|c1\nmachine|k|2\n",
	} {
		if _, err := ReadPolicies(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadPolicies: whatever ReadPolicies accepts, WritePolicies writes
// back and ReadPolicies reads again unchanged — read → write → read is a
// fixed point.
func FuzzReadPolicies(f *testing.F) {
	f.Add(VetoMagic + "\nmachine|table1/nvi/CPVS|42\nunsafe|c3\nunsafe|a2/stop:1\n\nmachine|table2/nvi/CPVS|0\n")
	f.Add(VetoMagic + "\nmachine|k|1\nunsafe|c1\nmachine|k|2\n")
	f.Add(VetoMagic + "\r\nmachine|k|+7\r\nunsafe|s\r\r\n")
	f.Fuzz(func(t *testing.T, in string) {
		ps, err := ReadPolicies(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePolicies(&buf, ps); err != nil {
			t.Fatalf("WritePolicies refused what ReadPolicies accepted: %v", err)
		}
		again, err := ReadPolicies(&buf)
		if err != nil {
			t.Fatalf("re-read of %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(again, ps) {
			t.Fatalf("read → write → read moved the policies of %q (rewritten as %q)", in, buf.String())
		}
	})
}

// chainMachine builds a deep commit chain with a branchy tail, the shape
// mined campaigns produce, sized so an O(E) scan per query is visibly
// distinct from an O(out-degree) lookup.
func chainMachine(n int) *Machine {
	m := New(n + 2)
	crash := StateID(n + 1)
	for i := 0; i < n; i++ {
		m.AddEdge(Edge{From: StateID(i), To: StateID(i + 1), ND: event.Deterministic, Label: "commit"})
		if i%3 == 0 {
			m.AddEdge(Edge{From: StateID(i), To: crash, ND: event.TransientND, Label: "fault"})
		}
	}
	m.MarkCrash(crash)
	return m
}

// TestCommitUnsafeAtNoAlloc pins the S1 fix: a per-commit query must use
// the adjacency cached at DangerousPaths time, not rebuild the O(E) index
// (which would heap-allocate every call).
func TestCommitUnsafeAtNoAlloc(t *testing.T) {
	col := chainMachine(512).DangerousPaths()
	if allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < 512; s++ {
			col.CommitUnsafeAt(StateID(s))
		}
	}); allocs != 0 {
		t.Fatalf("CommitUnsafeAt allocates %.1f times per sweep, want 0 (adjacency not cached?)", allocs)
	}
}

func BenchmarkCommitUnsafeAt(b *testing.B) {
	col := chainMachine(4096).DangerousPaths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.CommitUnsafeAt(StateID(i % 4096))
	}
}
