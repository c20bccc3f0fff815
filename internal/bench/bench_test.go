package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"failtrans/internal/faults"
	"failtrans/internal/sim"
)

func TestMagicSessionTerminates(t *testing.T) {
	s := MagicSession(1, 50)
	if s[len(s)-1] != "quit" {
		t.Error("session must end with quit")
	}
	kinds := map[string]bool{}
	for _, c := range s {
		kinds[strings.Fields(c)[0]] = true
	}
	for _, k := range []string{"paint", "erase", "drc", "box", "area"} {
		if !kinds[k] {
			t.Errorf("session lacks %s commands", k)
		}
	}
}

// fig8Rows runs one app's Figure 8 sweep, indexes its rows by protocol, and
// checks what every row must carry: a row that took checkpoints has a
// metrics block that counted them.
func fig8Rows(t *testing.T, app string) (*Fig8Result, map[string]Fig8Row) {
	t.Helper()
	res, err := Fig8(app, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig8Row{}
	for _, r := range res.Rows {
		rows[r.Protocol] = r
		if r.Checkpoints > 0 && r.Metrics.Commits == 0 {
			t.Errorf("%s %s: %d checkpoints but Metrics.Commits = 0", app, r.Protocol, r.Checkpoints)
		}
	}
	return res, rows
}

func TestFig8Nvi(t *testing.T) {
	res, rows := fig8Rows(t, "nvi")
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper shape: CAND/CPVS/CBNDVS take thousands of checkpoints (one
	// per keystroke-ish); the LOG variants collapse to almost none.
	if rows["CAND"].Checkpoints < 100 {
		t.Errorf("CAND checkpoints = %d, want ~per-keystroke", rows["CAND"].Checkpoints)
	}
	if rows["CAND-LOG"].Checkpoints*10 > rows["CAND"].Checkpoints {
		t.Errorf("CAND-LOG (%d) should collapse vs CAND (%d)", rows["CAND-LOG"].Checkpoints, rows["CAND"].Checkpoints)
	}
	// DC overhead tiny for an interactive app; disk overhead noticeable.
	for _, name := range []string{"CAND", "CPVS", "CBNDVS"} {
		if rows[name].OverheadRioPct > 5 {
			t.Errorf("%s DC overhead %.1f%%, want < 5%%", name, rows[name].OverheadRioPct)
		}
		if rows[name].OverheadDiskPct < 2 {
			t.Errorf("%s disk overhead %.1f%%, want noticeable", name, rows[name].OverheadDiskPct)
		}
		if rows[name].OverheadDiskPct <= rows[name].OverheadRioPct {
			t.Errorf("%s: disk must cost more than Rio", name)
		}
	}
	// Logging cuts the disk overhead (CBNDVS-LOG ≈ 12%-class vs CPVS
	// 44%-class in the paper).
	if rows["CBNDVS-LOG"].OverheadDiskPct >= rows["CPVS"].OverheadDiskPct {
		t.Errorf("CBNDVS-LOG disk overhead %.1f%% should beat CPVS %.1f%%",
			rows["CBNDVS-LOG"].OverheadDiskPct, rows["CPVS"].OverheadDiskPct)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "CBNDVS-LOG") {
		t.Error("Print output missing protocols")
	}
}

func TestFig8Magic(t *testing.T) {
	_, rows := fig8Rows(t, "magic")
	// Paper shape: magic has more ND than visible events, so CAND
	// commits far more than CPVS/CBNDVS.
	if rows["CAND"].Checkpoints <= rows["CPVS"].Checkpoints {
		t.Errorf("CAND (%d) should out-commit CPVS (%d)", rows["CAND"].Checkpoints, rows["CPVS"].Checkpoints)
	}
	// CAND-LOG logs the input stream and lands between.
	if !(rows["CAND-LOG"].Checkpoints < rows["CAND"].Checkpoints) {
		t.Errorf("CAND-LOG (%d) should commit less than CAND (%d)", rows["CAND-LOG"].Checkpoints, rows["CAND"].Checkpoints)
	}
}

func TestFig8Xpilot(t *testing.T) {
	res, rows := fig8Rows(t, "xpilot")
	// DC sustains full speed (~15 fps) for the low-commit protocols.
	if rows["CBNDVS"].FPSRio < 13 {
		t.Errorf("CBNDVS DC fps = %.1f, want ~15", rows["CBNDVS"].FPSRio)
	}
	// DC-disk degrades CAND badly (0-fps class in the paper).
	if rows["CAND"].FPSDisk >= rows["CBNDVS"].FPSDisk {
		t.Errorf("CAND disk fps %.1f should be worst (CBNDVS %.1f)", rows["CAND"].FPSDisk, rows["CBNDVS"].FPSDisk)
	}
	if rows["CAND"].FPSDisk > 12 {
		t.Errorf("CAND disk fps = %.1f, want clearly degraded", rows["CAND"].FPSDisk)
	}
	// The paper's exception: 2PC *raises* xpilot's commit rate vs CPVS.
	if rows["CPV-2PC"].CkptsPerSec <= rows["CPVS"].CkptsPerSec {
		t.Errorf("CPV-2PC ckpts/s %.1f should exceed CPVS %.1f (the paper's exception)",
			rows["CPV-2PC"].CkptsPerSec, rows["CPVS"].CkptsPerSec)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "fps") {
		t.Error("xpilot print should report fps")
	}
}

func TestFig8TreadMarks(t *testing.T) {
	_, rows := fig8Rows(t, "treadmarks")
	// Paper shape: the 2PC protocols are the big win (rare visibles).
	if rows["CBNDV-2PC"].Checkpoints*5 > rows["CPVS"].Checkpoints {
		t.Errorf("CBNDV-2PC (%d ckpts) should be far below CPVS (%d)",
			rows["CBNDV-2PC"].Checkpoints, rows["CPVS"].Checkpoints)
	}
	// Disk is catastrophically slower than Rio for the chatty protocols.
	if rows["CAND"].OverheadDiskPct < 5*rows["CAND"].OverheadRioPct {
		t.Errorf("CAND disk %.0f%% should dwarf Rio %.0f%%",
			rows["CAND"].OverheadDiskPct, rows["CAND"].OverheadRioPct)
	}
	if rows["CAND"].OverheadDiskPct < 100 {
		t.Errorf("CAND disk overhead %.0f%%, want unusable-class", rows["CAND"].OverheadDiskPct)
	}
}

func TestFig8UnknownApp(t *testing.T) {
	if _, err := Fig8("word", 1, 4, nil); err == nil {
		t.Error("unknown app must error")
	}
}

func TestTable1Small(t *testing.T) {
	res, err := Table1(StudyOptions{Crashes: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "heap bit flip") || !strings.Contains(out, "Average") {
		t.Errorf("Table 1 output malformed:\n%s", out)
	}
	if !strings.Contains(out, "Heisenbugs") {
		t.Error("Table 1 should print the §4.1 composition")
	}

	// A kind that never crashed has no rate: it prints "—" with its run
	// count and stays out of the Average and the composition.
	buf.Reset()
	(&Table1Result{
		Nvi: []faults.TypeResult{
			{Kind: sim.StackBitFlip, Runs: 60, Crashes: 50, Violations: 10},
			{Kind: sim.HeapBitFlip, Runs: 70, Crashes: 50, Violations: 30},
		},
		Postgres: []faults.TypeResult{
			{Kind: sim.StackBitFlip, Runs: 600},
			{Kind: sim.HeapBitFlip, Runs: 80, Crashes: 50, Violations: 40},
		},
	}).Print(&buf)
	for _, want := range []string{
		"stack bit flip                  20%   — (600 runs)\n",
		"heap bit flip                   60%            80%\n",
		"Average                         40%            80%\n",
		"with  5% Heisenbugs: Lose-work upheld in 2% of crashes (violated in 98%)\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("zero-crash Table 1 lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestTable2Small(t *testing.T) {
	res, err := Table2(StudyOptions{Crashes: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "failed recovery") {
		t.Errorf("Table 2 output malformed:\n%s", buf.String())
	}
}

func TestPrintSpace(t *testing.T) {
	var buf bytes.Buffer
	PrintSpace(&buf)
	out := buf.String()
	for _, name := range []string{"CAND", "HYPERVISOR", "MANETHO", "COMMIT-ALL"} {
		if !strings.Contains(out, name) {
			t.Errorf("space print missing %s", name)
		}
	}
	// The rendering is pinned whole: the x axis spans the plot, and the
	// catalogue lines under it do not move.
	want, err := os.ReadFile("testdata/space.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("Figure 3 rendering differs from testdata/space.golden:\n%s", out)
	}
}

// TestFig8ParallelMatchesSerial pins the parallel sweep to the serial one:
// same cells, same numbers, regardless of worker count.
func TestFig8ParallelMatchesSerial(t *testing.T) {
	serial, err := Fig8("nvi", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8("nvi", 1, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel Fig8 diverged from serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}
