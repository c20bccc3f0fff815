package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"failtrans/internal/bench"
	"failtrans/internal/obs/ledger"
)

// TestMain lets the tests run ftreport itself: re-executed with
// FTREPORT_TEST_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("FTREPORT_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ftreport runs the command with stdin as its standard input and returns
// its exit code and output streams.
func ftreport(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTREPORT_TEST_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), out.String(), errb.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errb.String()
}

// mustRun runs ftreport and fails the test unless it exits 0.
func mustRun(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	code, stdout, stderr := ftreport(t, stdin, args...)
	if code != 0 {
		t.Fatalf("ftreport %v: exit %d: %s", args, code, stderr)
	}
	return stdout
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRejectsBadCommandLine: a command line ftreport cannot run exits 2
// before any input is read, and prints nothing to stdout. The ledger named
// here does not exist, so reading it first would exit 1 instead.
func TestRejectsBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no input", nil, "exactly one of -ledger, -machine, -events and -demo is required"},
		{"two inputs", []string{"-demo", "-machine", "m.txt"}, "exactly one of -ledger, -machine, -events and -demo is required"},
		{"md without ledger", []string{"-demo", "-md", "r.md"}, "-md, -trace and -workers apply only with -ledger"},
		{"workers without ledger", []string{"-machine", "m.txt", "-workers", "2"}, "-md, -trace and -workers apply only with -ledger"},
		{"retired veto flag", []string{"-ledger", "missing.ftl", "-veto", "policy"}, "flag provided but not defined: -veto"},
		{"zero workers", []string{"-ledger", "missing.ftl", "-workers", "0"}, "-workers must be >= 1"},
		{"key without dot", []string{"-ledger", "missing.ftl", "-key", "table1/nvi/CPVS"}, "-key selects the -dot machine of a -ledger report; it needs both"},
		{"key without ledger", []string{"-demo", "-dot", "m.dot", "-key", "table1/nvi/CPVS"}, "-key selects the -dot machine of a -ledger report; it needs both"},
		{"proc without events", []string{"-demo", "-proc", "1"}, "-proc and -crashed apply only with -events"},
		{"crashed without events", []string{"-machine", "m.txt", "-crashed=false"}, "-proc and -crashed apply only with -events"},
		{"extra argument", []string{"-ledger", "missing.ftl", "machine.txt"}, `unexpected argument "machine.txt"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := ftreport(t, "", tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 2 mentioning %q", code, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("printed %q before rejecting its command line", stdout)
			}
		})
	}
}

// TestDemo: -demo prints the paper's Figure 5, 6B and 6C colorings exactly
// as captured in the golden file, and -dot renders Figure 6C's.
func TestDemo(t *testing.T) {
	if got, want := mustRun(t, "", "-demo"), string(readFile(t, filepath.Join("testdata", "demo.golden"))); got != want {
		t.Errorf("-demo output moved from testdata/demo.golden:\n%s", got)
	}
	dot := filepath.Join(t.TempDir(), "demo.dot")
	out := mustRun(t, "", "-demo", "-dot", dot)
	if !strings.HasSuffix(out, "wrote "+dot+"\n") {
		t.Errorf("-dot not reported last:\n%s", out)
	}
	// Figure 6C: fixed ND dooms the fork state 0, which 6B leaves safe.
	if b := readFile(t, dot); !bytes.HasPrefix(b, []byte(`digraph "dangerous"`)) || !bytes.Contains(b, []byte(`s0 [label="0", style=filled, fillcolor=mistyrose`)) {
		t.Errorf("-demo -dot is not Figure 6C's coloring:\n%s", b)
	}
}

// figure6B is the paper's Figure 6B as a machine description.
const figure6B = `states 5
start 0
# comment
edge 0 1 transient bad result
edge 0 2 transient good result
edge 1 3 det doomed
edge 2 4 det completes
crash 3
`

const figure6BReport = "machine: 5 states, 4 events, 1 crash states\n" +
	"events (colored = on a dangerous path):\n" +
	"  * e0     0 -> 1   transient bad result\n" +
	"    e1     0 -> 2   transient good result\n" +
	"  * e2     1 -> 3   det       doomed\n" +
	"    e3     2 -> 4   det       completes\n" +
	"safe commit states: 0 2 4 \n" +
	"doomed commit states: 1 \n"

// TestMachineInput: -machine colors a description read from a file or,
// named "-", from stdin, and reports a bad one by line.
func TestMachineInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig6b.txt")
	if err := os.WriteFile(path, []byte(figure6B), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, "", "-machine", path); got != figure6BReport {
		t.Errorf("-machine FILE:\n%s\nwant:\n%s", got, figure6BReport)
	}
	if got := mustRun(t, figure6B, "-machine", "-"); got != figure6BReport {
		t.Errorf("-machine -:\n%s\nwant:\n%s", got, figure6BReport)
	}
	code, stdout, stderr := ftreport(t, "states 3\ncrash 7\n", "-machine", "-")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "crash state 7 out of range") {
		t.Errorf("bad description: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// dump is an ftsim -dump event trace of two processes: process 0 commits,
// reads the clock (transient ND) and prints, and process 1 only commits.
const dump = `{"version":1,"numProcs":2,"events":4}
{"p":0,"i":0,"k":4,"l":"initial"}
{"p":1,"i":0,"k":4,"l":"initial"}
{"p":0,"i":1,"k":0,"nd":1,"l":"gettimeofday"}
{"p":0,"i":2,"k":1,"l":"print"}
`

// TestEventsInput: -events builds one process's executed-path machine from
// an ftsim -dump trace, with an escape edge at each transient ND event;
// -crashed=false leaves its end state live, and a process with no events is
// an error.
func TestEventsInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "trace " + path + ": proc 0, 3 events, crashed=true\n" +
			"machine: 5 states, 4 events, 1 crash states\n" +
			"events (colored = on a dangerous path):\n" +
			"    e0     0 -> 1   det       initial\n" +
			"  * e1     1 -> 2   transient gettimeofday\n" +
			"    e2     1 -> 4   transient escape\n" +
			"  * e3     2 -> 3   det       print\n" +
			"safe commit states: 0 1 4 \n" +
			"doomed commit states: 2 \n"},
		{[]string{"-proc", "1", "-crashed=false"}, "trace " + path + ": proc 1, 1 events, crashed=false\n" +
			"machine: 2 states, 1 events, 0 crash states\n" +
			"events (colored = on a dangerous path):\n" +
			"    e0     0 -> 1   det       initial\n" +
			"safe commit states: 0 1 \n" +
			"doomed commit states: \n"},
	} {
		if got := mustRun(t, "", append([]string{"-events", path}, tc.args...)...); got != tc.want {
			t.Errorf("-events %v:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
	code, _, stderr := ftreport(t, "", "-events", path, "-proc", "5")
	if code != 1 || !strings.Contains(stderr, "has no events for process 5 (of 2 procs)") {
		t.Errorf("-proc 5: exit %d, stderr %q", code, stderr)
	}
}

// writeLedger runs a study at 2 crashes per fault type, writes its ledger
// to path and returns it.
func writeLedger(t *testing.T, path string, run func(bench.StudyOptions) error, o bench.StudyOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	o.Crashes, o.Ledger = 2, ledger.NewWriter(&buf)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if err := o.Ledger.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func table1(o bench.StudyOptions) error { _, err := bench.Table1(o); return err }
func table2(o bench.StudyOptions) error { _, err := bench.Table2(o); return err }

// TestCampaignLedgerForensics: ftreport rebuilds a campaign's report,
// Perfetto trace and mined dangerous-path machine from its ledgers alone.
func TestCampaignLedgerForensics(t *testing.T) {
	dir := t.TempDir()
	t1, t2 := filepath.Join(dir, "table1.ftl"), filepath.Join(dir, "table2.ftl")
	writeLedger(t, t1, table1, bench.StudyOptions{})
	writeLedger(t, t2, table2, bench.StudyOptions{})
	md, tr, dot := filepath.Join(dir, "report.md"), filepath.Join(dir, "trace.json"), filepath.Join(dir, "machine.dot")
	mustRun(t, "", "-ledger", t1, "-ledger", t2, "-md", md, "-trace", tr, "-dot", dot)

	report := string(readFile(t, md))
	if !strings.HasPrefix(report, "# Campaign forensics report\n") || !strings.Contains(report, "cross-check") {
		t.Errorf("report lacks its heading or the cross-check table:\n%.400s", report)
	}
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, tr), &trace); err != nil {
		t.Fatalf("campaign trace is not JSON: %v", err)
	}
	spans := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("campaign trace has %d events and no X span", len(trace.TraceEvents))
	}
	if b := readFile(t, dot); !bytes.HasPrefix(b, []byte("digraph")) {
		t.Errorf("-dot output is not a digraph:\n%.200s", b)
	}
}

// TestCommitVeto closes the mining loop: the machines mined from a Table 1
// ledger, read from its path as ftbench -veto reads it, defer commits when
// Table 1 re-runs under their policies, and a two-phase veto campaign's
// ledger renders its Commit veto section.
func TestCommitVeto(t *testing.T) {
	dir := t.TempDir()
	t1 := filepath.Join(dir, "table1.ftl")
	writeLedger(t, t1, table1, bench.StudyOptions{Workers: 4})
	mined, err := ledger.ReadPaths("ftreport", io.Discard, []string{t1})
	if err != nil {
		t.Fatal(err)
	}

	vetoed := writeLedger(t, filepath.Join(dir, "table1-veto.ftl"), table1, bench.StudyOptions{Workers: 4, Veto: ledger.Analyze(mined).Miner})
	recs, err := ledger.ReadAll(bytes.NewReader(vetoed))
	if err != nil {
		t.Fatal(err)
	}
	active, deferred := false, 0
	for i := range recs {
		active = active || recs[i].VetoActive
		deferred += recs[i].VetoN
	}
	if !active || deferred == 0 {
		t.Errorf("re-run under the mined policies: veto active %v, %d commits deferred; want both", active, deferred)
	}

	campaign := filepath.Join(dir, "veto-campaign.ftl")
	var res *bench.VetoResult
	writeLedger(t, campaign, func(o bench.StudyOptions) (err error) {
		res, err = bench.VetoCampaign("nvi", o)
		return err
	}, bench.StudyOptions{Workers: 4})
	if res.Outcome.ClawedBack <= 0 || res.Outcome.VetoedCommits <= 0 {
		t.Errorf("veto campaign clawed back %d violations with %d vetoed commits; want both > 0",
			res.Outcome.ClawedBack, res.Outcome.VetoedCommits)
	}
	md := filepath.Join(dir, "veto-report.md")
	mustRun(t, "", "-ledger", campaign, "-md", md)
	if !bytes.Contains(readFile(t, md), []byte("\n## Commit veto\n")) {
		t.Error("veto campaign report lacks its Commit veto section")
	}
}
