package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run ftbench itself: re-executed with
// FTBENCH_TEST_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("FTBENCH_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ftbench runs the command and returns its exit code and output streams.
func ftbench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTBENCH_TEST_MAIN=1")
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

// TestRejectsBadInputUpFront: every bad command line exits before any
// simulation has run, with the code and message that tell the user why.
func TestRejectsBadInputUpFront(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"unknown experiment", []string{"-experiment", "tabel1"}, 2, "accepted: all, fig8, table1, table2, space, veto, fleet"},
		{"zero crashes", []string{"-experiment", "table1", "-crashes", "0"}, 2, "-crashes must be at least 1"},
		{"retired bench flag", []string{"-bench"}, 2, "flag provided but not defined: -bench"},
		{"veto under veto experiment", []string{"-experiment", "veto", "-veto", "x.ftv"}, 2, "-veto arms table1/table2 studies"},
		{"bad fleet size", []string{"-experiment", "fleet", "-fleet-sizes", "100,x"}, 2, `bad size "x"`},
		{"tiny fleet size", []string{"-experiment", "fleet", "-fleet-sizes", "1"}, 2, `bad size "1"`},
		{"unreadable veto file", []string{"-experiment", "table1", "-veto", missing}, 1, "-veto:"},
		{"uncreatable json file", []string{"-experiment", "table1", "-json", missing}, 1, "-json:"},
		{"uncreatable ledger file", []string{"-experiment", "table1", "-ledger", missing}, 1, "-ledger:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := ftbench(t, tc.args...)
			if code != tc.code || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr %q; want exit %d mentioning %q", code, stderr, tc.code, tc.want)
			}
			if stdout != "" {
				t.Errorf("printed %q before rejecting its input", stdout)
			}
		})
	}
}

// TestWritesJSON: a valid run fills the -json file it created up front.
func TestWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.json")
	if code, _, stderr := ftbench(t, "-experiment", "space", "-json", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if buf, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(buf, []byte("{")) {
		t.Errorf("-json file = %q, %v", buf, err)
	}
}
