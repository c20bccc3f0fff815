package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/event"
	"failtrans/internal/statemachine"
)

// sampleRecords covers every outcome, both commit representations
// (positions vs count-only), and every flag combination the studies emit.
func sampleRecords() []Record {
	return []Record{
		{Run: 0, Study: "table1", App: "nvi", Protocol: "CPVS", Medium: "rio", Kind: "heap bit flip",
			Seed: 1, FireAt: 40, Outcome: Crashed, LoseWork: true,
			Activation: 10, Crash: 50, Steps: 50, WorldSteps: 61, PrefixSteps: 12,
			VClockUS: 12345, RollbackDepth: 10, CommitN: 3, Commits: []int{3, 7, 40},
			ViolFirst: 2, ViolN: 1},
		{Run: 1, Study: "table1", App: "nvi", Protocol: "CPVS", Medium: "rio", Kind: "heap bit flip",
			Seed: 1, FireAt: 90, Outcome: Inert,
			Activation: -1, Crash: -1, Steps: 120, WorldSteps: 150, PrefixSteps: -1,
			VClockUS: 999, RollbackDepth: -1, CommitN: 2, Commits: []int{3, 7},
			ViolFirst: -1},
		{Run: 2, Study: "table2", App: "postgres", Protocol: "CPVS", Medium: "rio", Kind: "delete branch",
			Seed: 7, FireAt: 110_000, Outcome: Crashed, LoseWork: false, Recovered: true, SaveWork: true,
			Activation: -1, Crash: -1, Steps: 400, WorldSteps: 700, PrefixSteps: 333,
			VClockUS: 5_000_000, RollbackDepth: -1, CommitN: 17, ViolFirst: -1,
			VetoActive: true, VetoN: 4, VetoSaveWorkN: 1},
		{Run: 3, Study: "fig8", App: "magic", Protocol: "baseline", Medium: "disk", Kind: "none",
			Seed: 11, FireAt: -1, Outcome: Completed,
			Activation: -1, Crash: -1, Steps: 80, WorldSteps: 100, PrefixSteps: -1,
			VClockUS: 77, RollbackDepth: -1, CommitN: 0, ViolFirst: -1},
		{Run: 4, Study: "table1", App: "nvi", Protocol: "CPVS", Medium: "rio", Kind: "off by one",
			Seed: 1, FireAt: 12, Outcome: WrongOutput, SaveWork: true,
			Activation: 30, Crash: -1, Steps: 200, WorldSteps: 260, PrefixSteps: 40,
			VClockUS: 31337, RollbackDepth: -1, CommitN: 1, Commits: []int{5}, ViolFirst: -1},
	}
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		w.Append(&recs[i])
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != int64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", w.Records(), len(recs))
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestWriterDeterminism(t *testing.T) {
	recs := sampleRecords()
	render := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range recs {
			w.Append(&recs[i])
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two renderings of the same records differ")
	}
}

func TestWriterRejectsBadField(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := Record{Study: "table1", App: "nvi|evil"}
	w.Append(&r)
	if w.Err() == nil {
		t.Fatal("field containing '|' was accepted")
	}
	if w.Records() != 0 {
		t.Fatal("rejected record was counted")
	}
}

// TestAppendZeroAllocs is the hot-path contract: a warm writer appends a
// record without heap allocation. The emit point sits inside the campaign
// executor's ordered accept loop.
func TestAppendZeroAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	r := sampleRecords()[0]
	w.Append(&r) // warm the buffer
	if allocs := testing.AllocsPerRun(200, func() { w.Append(&r) }); allocs != 0 {
		t.Fatalf("Append allocates %.1f times per record, want 0", allocs)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejects(t *testing.T) {
	// countOnly is a one-record ledger whose record carries only commitn.
	countOnly := func(commitN int) string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		r := sampleRecords()[0]
		r.Commits, r.CommitN = nil, commitN
		w.Append(&r)
		return buf.String()
	}
	valid := func() string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		r := sampleRecords()[0]
		w.Append(&r)
		return buf.String()
	}()
	headerOnly := valid[:strings.Index(valid, "\n0|")+1]
	cases := map[string]string{
		"bad magic":      strings.Replace(valid, "ftledger v2", "notaledger", 1),
		"future version": strings.Replace(valid, "ftledger v2", "ftledger v9", 1),
		// v1 records lack the veton|vetosw columns.
		"v1 ledger":    "ftledger v1\n0|table1|nvi|CPVS|rio|stop|1|4|crash|LS|2|5|5|9|3|10|3|1|0|1|3\n",
		"short line":   headerOnly + "0|only|three\n",
		"bad outcome":  strings.Replace(valid, "|crash|L|", "|exploded|L|", 1),
		"commit count": strings.Replace(valid, "3,7,40", "3,7", 1),
		// A count-only record's commitn sizes the commit chain the miner
		// builds: a million is an out-of-memory kill.
		"commitn past the cap": countOnly(MaxCommitN + 1),
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadAll(strings.NewReader(countOnly(1_000_000))); !errors.Is(err, ErrCommitN) {
		t.Errorf("commitn 10⁶: ReadAll error %v, want ErrCommitN", err)
	}
	if _, err := ReadAll(strings.NewReader(countOnly(MaxCommitN))); err != nil {
		t.Errorf("commitn at the cap: %v", err)
	}
}

func TestReadFiles(t *testing.T) {
	files := map[string]string{}
	for i, name := range []string{"a.ftl", "b.ftl"} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		r := sampleRecords()[i]
		w.Append(&r)
		files[name] = buf.String()
	}
	recs, err := ReadFiles(func(path string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(files[path])), nil
	}, []string{"a.ftl", "b.ftl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Study != "table1" || recs[1].Outcome != Inert {
		t.Fatalf("concatenated read wrong: %+v", recs)
	}
}

// TestPathEventsShape pins the synthesized path: pre-activation commits,
// the transient-ND activation, post-activation commits, the crash.
func TestPathEventsShape(t *testing.T) {
	r := Record{Outcome: Crashed, FireAt: 40, Kind: "heap bit flip",
		Activation: 10, Crash: 50, CommitN: 3, Commits: []int{3, 7, 40}}
	evs := PathEvents(&r)
	kinds := make([]event.Kind, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	want := []event.Kind{event.Commit, event.Commit, event.Internal, event.Commit, event.Crash}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("path = %v, want %v", kinds, want)
	}
	if evs[2].ND != event.TransientND {
		t.Fatal("activation event is not transient-ND")
	}
}

// TestCrossCheckAgreement feeds a record whose emitter-side violation range
// is correct and one where it is wrong; the miner must confirm the first
// and flag the second.
func TestCrossCheckAgreement(t *testing.T) {
	good := Record{Study: "table1", App: "nvi", Protocol: "CPVS", Kind: "heap bit flip",
		Outcome: Crashed, FireAt: 40, Activation: 10, Crash: 35,
		CommitN: 3, Commits: []int{5, 20, 30}, ViolFirst: 1, ViolN: 2}
	mn := NewMiner()
	mn.Add(&good)
	md := mn.Get("table1/nvi/CPVS")
	if md.Checked != 1 || md.Mismatched != 0 {
		t.Fatalf("good record: checked=%d mismatched=%d (%s)", md.Checked, md.Mismatched, md.FirstMismatch)
	}

	bad := good
	bad.Run = 9
	bad.ViolFirst, bad.ViolN = 0, 3 // claims the pre-activation commit violates too
	mn.Add(&bad)
	if md.Mismatched != 1 {
		t.Fatalf("bad record not flagged: mismatched=%d", md.Mismatched)
	}
	if !strings.Contains(md.FirstMismatch, "run 9") {
		t.Fatalf("FirstMismatch = %q, want run 9 named", md.FirstMismatch)
	}
}

// TestMinedColoring checks the merged machine's dangerous-path coloring:
// post-activation commits of an always-fatal kind are dangerous,
// pre-activation commits never are (the activation's escape edge protects
// them), and a kind observed to complete is not colored.
func TestMinedColoring(t *testing.T) {
	fatal := Record{Study: "table1", App: "nvi", Protocol: "CPVS", Kind: "delete branch",
		Outcome: Crashed, FireAt: 9, Activation: 10, Crash: 40,
		CommitN: 3, Commits: []int{5, 20, 30}, ViolFirst: 1, ViolN: 2}
	benign := Record{Study: "table1", App: "nvi", Protocol: "CPVS", Kind: "stack bit flip",
		Outcome: Completed, FireAt: 9, Activation: 10,
		CommitN: 3, Commits: []int{5, 20, 30}, ViolFirst: -1}
	mn := NewMiner()
	mn.Add(&fatal)
	mn.Add(&benign)
	md := mn.Get("table1/nvi/CPVS")
	col := md.Coloring()
	m := md.Machine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	dangerous := 0
	for i := range m.Edges {
		if m.Edges[i].Label != "commit" {
			continue
		}
		if col.Dangerous(statemachine.EventID(i)) {
			dangerous++
		}
	}
	// The fatal kind's two post-activation commits, and nothing else: not
	// the shared pre-activation commit, not the benign kind's chain.
	if dangerous != 2 {
		t.Fatalf("dangerous commit edges = %d, want 2", dangerous)
	}
	// Coloring is cached until a new record arrives.
	if md.Coloring() != col {
		t.Fatal("coloring recomputed without new records")
	}
	mn.Add(&fatal)
	if md.Coloring() == col {
		t.Fatal("coloring not refreshed after a new record")
	}
}

func TestAggregator(t *testing.T) {
	recs := sampleRecords()
	agg := NewAggregator()
	for i := range recs {
		agg.Add(&recs[i])
	}
	groups := agg.Groups()
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	g := groups[0] // table1/nvi/heap bit flip, first appearance
	if g.Key.Kind != "heap bit flip" || g.Runs != 2 || g.Crashes != 1 || g.Inert != 1 {
		t.Fatalf("group 0 wrong: %+v", g)
	}
	if g.ViolationPct() != 100 {
		t.Fatalf("ViolationPct = %v, want 100 (1 LoseWork / 1 crash)", g.ViolationPct())
	}
	if g.DoomIndex[2] != 1 {
		t.Fatalf("DoomIndex = %v, want {2:1}", g.DoomIndex)
	}
	if g.RollbackDepth.Count != 1 || g.RollbackDepth.Max != 10 {
		t.Fatalf("RollbackDepth = %+v", g.RollbackDepth)
	}
	// FireAt 40 lands in log2 bucket 6 (32..63) with outcome Crashed.
	if g.Heat[6][Crashed] != 1 {
		t.Fatalf("Heat = %v", g.Heat[6])
	}
}

func TestReportDeterministicAndComplete(t *testing.T) {
	recs := sampleRecords()
	render := func() string {
		var buf bytes.Buffer
		if err := Analyze(recs).WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	md := render()
	if md != render() {
		t.Fatal("two renderings of the same ledger differ")
	}
	for _, want := range []string{
		"Table 1 (from ledger)",
		"Table 2 (from ledger)",
		"Figure 8 cells (from ledger)",
		"heap bit flip",
		"Injection-point outcomes",
		"Conflict attribution",
		"Cross-run histograms",
		"Mined dangerous-path machines",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

func TestCampaignTrace(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := Analyze(recs).WriteCampaignTrace(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("campaign trace is not valid JSON")
	}
	s := buf.String()
	for _, want := range []string{"worker 0", "worker 1", "outcome:crash", "table1/nvi/heap bit flip"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace lacks %q", want)
		}
	}
}

func TestMachineDot(t *testing.T) {
	recs := sampleRecords()
	rp := Analyze(recs)
	var buf bytes.Buffer
	if err := rp.WriteMachineDot(&buf, "table1/nvi/CPVS"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("dot output lacks digraph")
	}
	if err := rp.WriteMachineDot(io.Discard, "no/such/machine"); err == nil {
		t.Fatal("unknown machine key accepted")
	}
}

func TestRecordPoolReset(t *testing.T) {
	r := Get()
	r.Study = "x"
	r.Commits = append(r.Commits, 1, 2, 3)
	Put(r)
	r2 := Get()
	if r2.Study != "" || len(r2.Commits) != 0 {
		t.Fatalf("pooled record not reset: %+v", r2)
	}
	if r2.FireAt != -1 || r2.Activation != -1 || r2.ViolFirst != -1 || r2.RollbackDepth != -1 {
		t.Fatalf("pooled record positions not -1: %+v", r2)
	}
	Put(r2)
}

// FuzzReadAll drives a ledger through everything the commands do with one:
// ReadAll → Analyze → every report writer and every mined machine's veto
// policy must never panic, and the records ReadAll returned (the clean
// prefix, for a torn tail) re-read identically after Writer.Append.
func FuzzReadAll(f *testing.F) {
	for _, recs := range [][]Record{sampleRecords(), vetoRecords()} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range recs {
			w.Append(&recs[i])
		}
		f.Add(buf.String())
	}
	f.Add("ftledger v2\n0|table1|nvi|CPVS|rio|stop|1|4|crash|LS|2|5|5|9|3|10|3|1|0|1|0|0|3\n0|t|a|p|m|k|1|1|ok|R|0")
	f.Add("ftledger v2\n0|table2|nvi|CPVS|rio|k|1|5|crash|-|3|9|0|0|-4|0|0|-5|-1|-2|0|0|-\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, _ := ReadAll(strings.NewReader(in))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range recs {
			w.Append(&recs[i])
		}
		if err := w.Err(); err != nil {
			t.Fatalf("Append refused a record ReadAll returned: %v", err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("records moved across Append → ReadAll:\n got %+v\nwant %+v", again, recs)
		}

		rp := Analyze(recs)
		if err := rp.WriteMarkdown(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := rp.WriteCampaignTrace(io.Discard, 3); err != nil {
			t.Fatal(err)
		}
		for _, key := range rp.Miner.Keys() {
			if err := rp.WriteMachineDot(io.Discard, key); err != nil {
				t.Fatal(err)
			}
			rp.Miner.Get(key).VetoPolicy()
		}
	})
}
