package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"failtrans/internal/obs/ledger"
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
		{"veto under veto experiment", []string{"-experiment", "veto", "-veto", "x.ftl"}, 2, "-veto arms table1/table2 studies"},
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

// TestVetoReadsLedgers: -veto mines the campaign ledgers it is given. A
// Table 1 ledger arms Table 1's re-run with its machines' commit vetoes; a
// torn copy of it arms the same vetoes after a warning, so the re-run's
// ledger is byte-identical; a file that is not a ledger exits 1 with the
// ledger reader's error.
func TestVetoReadsLedgers(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	mustRun := func(args ...string) (stderr string) {
		t.Helper()
		code, _, stderr := ftbench(t, append([]string{"-experiment", "table1", "-crashes", "2", "-parallel", "2"}, args...)...)
		if code != 0 {
			t.Fatalf("ftbench %v: exit %d: %s", args, code, stderr)
		}
		return stderr
	}
	mustRun("-ledger", path("base.ftl"))
	mustRun("-veto", path("base.ftl"), "-ledger", path("vetoed.ftl"))
	vetoed, err := os.ReadFile(path("vetoed.ftl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadAll(bytes.NewReader(vetoed))
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for i := range recs {
		if !recs[i].VetoActive {
			t.Fatalf("run %d ran without a veto policy", i)
		}
		deferred += recs[i].VetoN
	}
	if deferred == 0 {
		t.Error("the mined policies deferred no commit")
	}

	base, err := os.ReadFile(path("base.ftl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("torn.ftl"), append(base, "0|table1|nvi"...), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := mustRun("-veto", path("torn.ftl"), "-ledger", path("torn-vetoed.ftl"))
	if !strings.Contains(stderr, "ftbench: warning: ") || !strings.Contains(stderr, "complete records before the tear") {
		t.Errorf("torn -veto ledger: no warning on stderr:\n%s", stderr)
	}
	if b, err := os.ReadFile(path("torn-vetoed.ftl")); err != nil || !bytes.Equal(b, vetoed) {
		t.Errorf("a torn copy of the ledger armed a different veto (err %v)", err)
	}

	// The body of a policy file of the retired format: not a ledger.
	if err := os.WriteFile(path("policy"), []byte("machine|table1/nvi/CPVS|42\nunsafe|c3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := ftbench(t, "-experiment", "table1", "-veto", path("policy"))
	if code != 1 || stdout != "" || !strings.Contains(stderr, "ftbench: -veto: ") || !strings.Contains(stderr, "ledger: bad magic line") {
		t.Errorf("non-ledger -veto: exit %d, stdout %q, stderr %q; want exit 1 with the reader's bad-magic error", code, stdout, stderr)
	}
}
