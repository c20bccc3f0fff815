package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run dangerous itself: re-executed with
// DANGEROUS_TEST_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("DANGEROUS_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dangerous runs the command on an empty stdin and returns its exit code
// and output streams.
func dangerous(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DANGEROUS_TEST_MAIN=1")
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

// TestRejectsBadCommandLine: a command line naming another mode's option,
// or a stray argument, exits 2 before any input is read.
func TestRejectsBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"proc without trace", []string{"-proc", "1"}, "-proc and -crashed apply only with -trace"},
		{"crashed without trace", []string{"-crashed=false"}, "-proc and -crashed apply only with -trace"},
		{"key without ledger", []string{"-key", "table1/nvi/CPVS"}, "-key applies only with -ledger"},
		{"extra argument", []string{"machine.txt"}, `unexpected argument "machine.txt"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := dangerous(t, tc.args...)
			if code != 2 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit 2 mentioning %q", code, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("printed %q before rejecting its command line", stdout)
			}
		})
	}
}

// TestParseRejects: each row is a description the parser once accepted
// and then crashed on or misreported.
func TestParseRejects(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		// Accepted, then ran the coloring out of memory.
		{"state count past the cap", "states 99999999999\n", "line 1: states 99999999999 exceeds the limit"},
		// Accepted and reported as "1 crash states".
		{"crash state out of range", "states 3\ncrash 7\n", "crash state 7 out of range"},
		// The second line silently dropped the edge and crash mark before it.
		{"repeated states line", "states 3\nedge 0 1 det\ncrash 2\nstates 3\n", "line 4: repeated states line (first on line 1)"},
		// Read as "states 3": the trailing junk was ignored.
		{"junk after a number", "states 3x\n", "line 1: states <n>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := parse(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parse = %v, %v; want an error mentioning %q", m, err, tc.want)
			}
		})
	}
}

// FuzzParse: the parser never panics, and what it accepts is a valid
// machine.
func FuzzParse(f *testing.F) {
	f.Add("states 5\nstart 0\n# comment\nedge 0 1 transient bad result\nedge 0 2 transient\nedge 1 3 det doomed\nedge 2 4 fixed\ncrash 3\n")
	f.Add("states 99999999999\n")
	f.Add("states 3\ncrash 7\n")
	f.Add("states 3\nedge 0 1 det\nstates 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("parse accepted an invalid machine: %v", verr)
		}
	})
}
