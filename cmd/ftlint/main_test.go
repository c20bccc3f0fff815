package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run ftlint itself: re-executed with
// FTLINT_TEST_MAIN set, the test binary is the command.
func TestMain(m *testing.M) {
	if os.Getenv("FTLINT_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// module writes a throwaway module named failtrans into a temp directory,
// one file per path → source entry, and returns the directory.
func module(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodes: ftlint exits 0 on a clean tree, 1 when it has findings and
// 2 when it cannot load the tree. Relative patterns resolve against the
// working directory, as with the go tool.
func TestExitCodes(t *testing.T) {
	const gomod = "module failtrans\n\ngo 1.22\n"
	const clean = "package sim\n\nfunc Stamp(now int64) int64 { return now + 1 }\n"
	const planted = "package sim\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n"
	// mixed has a planted internal/sim beside a clean internal/event.
	mixed := map[string]string{
		"go.mod":                 gomod,
		"internal/sim/clock.go":  planted,
		"internal/event/next.go": "package event\n\nfunc Next(n int64) int64 { return n + 1 }\n",
	}
	for _, tc := range []struct {
		name  string
		files map[string]string
		dir   string // working directory, relative to the module root
		args  []string
		code  int
		want  string // substring of the combined output
	}{
		{"clean", map[string]string{
			"go.mod":                gomod,
			"internal/sim/clock.go": clean,
		}, ".", []string{"./..."}, 0, ""},
		{"planted time.Now", map[string]string{
			"go.mod":                gomod,
			"internal/sim/clock.go": planted,
		}, ".", []string{"./..."}, 1, "time.Now"},
		{"no module", map[string]string{
			"clock.go": "package clock\n",
		}, ".", []string{"./..."}, 2, "no go.mod found"},
		{"clean subpackage", mixed, ".", []string{"./internal/event"}, 0, ""},
		{"planted subpackage", mixed, ".", []string{"./internal/sim"}, 1, "time.Now"},
		{"planted subtree from subdirectory", mixed, "internal", []string{"./sim/..."}, 1, "time.Now"},
		{"clean subdirectory tree", mixed, "internal/event", []string{"./..."}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Dir = filepath.Join(module(t, tc.files), tc.dir)
			cmd.Env = append(os.Environ(), "FTLINT_TEST_MAIN=1")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code || !strings.Contains(out.String(), tc.want) {
				t.Errorf("exit %d, output %q; want exit %d mentioning %q", code, out.String(), tc.code, tc.want)
			}
		})
	}
}
