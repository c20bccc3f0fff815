package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run ftsim itself: re-executed with
// FTSIM_TEST_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("FTSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ftsim runs the command and returns its exit code and output streams.
func ftsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTSIM_TEST_MAIN=1")
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

// TestRejectsBadInputUpFront: every command line ftsim cannot run exits 2
// with a message naming what it accepts, before it has printed anything or
// created the -ledger file.
func TestRejectsBadInputUpFront(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"stop proc past the app's processes", []string{"-app", "nvi", "-stop", "3:10"}, `bad -stop "3:10" (want proc:step with proc in 0..0 for -app nvi`},
		{"stop proc past treadmarks' processes", []string{"-app", "treadmarks", "-stop", "1:60", "-stop", "4:60"}, `bad -stop "4:60" (want proc:step with proc in 0..3 for -app treadmarks`},
		{"negative stop proc", []string{"-stop", "-1:10"}, `bad -stop "-1:10"`},
		{"negative stop step", []string{"-stop", "0:-10"}, `bad -stop "0:-10"`},
		{"junk after the stop step", []string{"-stop", "0:10junk"}, `bad -stop "0:10junk"`},
		{"stop without a step", []string{"-stop", "0"}, `bad -stop "0"`},
		{"unknown app", []string{"-app", "emacs"}, "accepted: nvi, magic, xpilot, treadmarks"},
		{"unknown protocol", []string{"-protocol", "CPVX"}, "accepted: NONE, "},
		{"unknown medium", []string{"-medium", "tape"}, "accepted: rio, disk"},
		{"seeds with tracefile", []string{"-seeds", "3", "-tracefile", "t.json"}, "-seeds campaigns support none of -tracefile"},
		{"veto without a protocol", []string{"-protocol", "NONE", "-veto", "x.ftl"}, "needs a -protocol other than NONE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "runs.ftl")
			code, stdout, stderr := ftsim(t, append(tc.args, "-ledger", ledger)...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 2 mentioning %q", code, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("printed %q before rejecting its input", stdout)
			}
			if _, err := os.Stat(ledger); err == nil {
				t.Error("created the -ledger file before rejecting its input")
			}
		})
	}
}

// TestStopInjectsAFailure: an in-range -stop runs, crashes the process once
// and recovers it.
func TestStopInjectsAFailure(t *testing.T) {
	code, stdout, stderr := ftsim(t, "-app", "nvi", "-stop", "0:60")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"proc 0 (nvi): status=done steps=", "crashes=1", "recoveries:     1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestVetoReadsLedgers: -veto mines the campaign ledgers it is given. A
// -seeds campaign's ledger arms the run's commit veto; a torn copy of it
// arms the same veto after a warning; a file that is not a ledger, and a
// ledger that mined no machine for the run, exit 1 naming why.
func TestVetoReadsLedgers(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	if code, _, stderr := ftsim(t, "-seeds", "3", "-parallel", "2", "-ledger", path("nvi.ftl")); code != 0 {
		t.Fatalf("campaign: exit %d: %s", code, stderr)
	}
	code, armed, stderr := ftsim(t, "-veto", path("nvi.ftl"))
	if code != 0 || !strings.Contains(armed, "commit veto:    ") || strings.Contains(armed, "commit veto:    0 consulted") {
		t.Fatalf("ledger -veto: exit %d, stderr %q; want a consulted veto in:\n%s", code, stderr, armed)
	}

	base, err := os.ReadFile(path("nvi.ftl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("torn.ftl"), append(base, "0|ftsim|nvi"...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := ftsim(t, "-veto", path("torn.ftl"))
	if code != 0 || stdout != armed || !strings.Contains(stderr, "ftsim: warning: ") || !strings.Contains(stderr, "complete records before the tear") {
		t.Errorf("torn -veto ledger: exit %d, stderr %q; want a warning and the untorn ledger's run", code, stderr)
	}

	// The body of a policy file of the retired format: not a ledger.
	if err := os.WriteFile(path("policy"), []byte("machine|ftsim/nvi/CPVS|3\nunsafe|c3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"not a ledger", []string{"-veto", path("policy")}, []string{"ftsim: -veto: ", "ledger: bad magic line"}},
		{"no machine for the run", []string{"-app", "magic", "-veto", path("nvi.ftl")}, []string{`-veto: no policy for "ftsim/magic/CPVS"`, "(have: ftsim/nvi/CPVS)"}},
	} {
		ledger := path("runs.ftl")
		code, stdout, stderr := ftsim(t, append(tc.args, "-ledger", ledger)...)
		if code != 1 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 1 and nothing printed", tc.name, code, stdout)
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: stderr %q lacks %q", tc.name, stderr, want)
			}
		}
		if _, err := os.Stat(ledger); err == nil {
			t.Errorf("%s: created the -ledger file before failing on -veto", tc.name)
		}
	}
}

// TestTraceExport: -tracefile writes Chrome trace-event JSON with a named
// track per process, duration spans and happens-before flow arrows, and the
// same seed reproduces it byte for byte — under CPV-2PC, which commits every
// process, and CBNDV-2PC, which commits a dependent set built from a map.
func TestTraceExport(t *testing.T) {
	for _, pol := range []string{"CPV-2PC", "CBNDV-2PC"} {
		t.Run(pol, func(t *testing.T) {
			dir := t.TempDir()
			var stdout string
			run := func(name string) []byte {
				path := filepath.Join(dir, name)
				code, out, stderr := ftsim(t, "-app", "treadmarks", "-protocol", pol, "-seed", "7", "-stop", "1:60", "-tracefile", path)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr)
				}
				stdout = out
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			first := run("trace.json")
			// The run's virtual-time results: process 1 stops at its 60th
			// event, rolls back to its initial checkpoint and re-executes
			// through the redelivery of the messages it had consumed; one
			// coordinated commit before the visible event commits all four.
			for _, want := range []string{
				"virtual time:   29.16256ms\n",
				"events:         758\n  visible=1 send=364 receive=363 commit=8 ",
				"checkpoints:    [1 1 1 1] (total 4)\n",
				"recoveries:     1  2pc rounds: 1\n",
			} {
				if !strings.Contains(stdout, want) {
					t.Errorf("output lacks %q:\n%s", want, stdout)
				}
			}
			var tr struct {
				TraceEvents []struct {
					Ph   string `json:"ph"`
					Name string `json:"name"`
					BP   string `json:"bp"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(first, &tr); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			var threads, spans, flowStarts, flowEnds int
			for _, e := range tr.TraceEvents {
				switch {
				case e.Ph == "M" && e.Name == "thread_name":
					threads++
				case e.Ph == "X":
					spans++
				case e.Ph == "s":
					flowStarts++
				case e.Ph == "f" && e.BP == "e":
					flowEnds++
				}
			}
			if threads < 4 || spans == 0 || flowStarts == 0 || flowEnds == 0 {
				t.Errorf("trace has %d thread_name tracks (want >= 4), %d X spans, %d flow starts, %d enclosing flow ends (want > 0 each)",
					threads, spans, flowStarts, flowEnds)
			}
			for _, name := range []string{"trace2.json", "trace3.json"} {
				if !bytes.Equal(first, run(name)) {
					t.Fatal("the same seed wrote a different trace")
				}
			}
		})
	}
}

// TestMetricsSnapshotGolden pins ftsim's whole -metrics stdout for two runs,
// so the registry's snapshot is checked end to end through the simulator,
// Discount Checking and the kernel, not only by internal/obs's synthetic
// fixtures: CI's coordinated-commit run (2PC, a stop failure on process 1),
// and xpilot under a logging protocol, whose server logs 45 receives,
// reaches an inbox depth of 4 and whose client 1 crashes once. Regenerate a
// golden with `go run ./cmd/ftsim <args> -metrics > cmd/ftsim/testdata/<file>`
// only for a change meant to move the study's numbers.
func TestMetricsSnapshotGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"metrics_treadmarks_cpv2pc.golden", []string{"-app", "treadmarks", "-protocol", "CPV-2PC", "-seed", "7", "-stop", "1:60"}},
		{"metrics_xpilot_cbndvslog.golden", []string{"-app", "xpilot", "-protocol", "CBNDVS-LOG", "-seed", "7", "-stop", "1:40"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := ftsim(t, append(tc.args, "-metrics")...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("-metrics output differs from testdata/%s:\n%s", tc.golden, stdout)
			}
		})
	}
}
