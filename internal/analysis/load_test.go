package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failtrans/internal/analysis"
)

// writeModule writes a throwaway module "m", one file per path → source
// entry, and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
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

// loadModule loads every package of the module at dir with no analyzers.
func loadModule(dir string) (*analysis.Result, error) {
	return analysis.Run(analysis.Config{Dir: dir, ModulePath: "m", Patterns: []string{"./..."}}, nil)
}

// TestLoadRejectsImportCycle: a local import cycle is a load error that
// names a package on the cycle.
func TestLoadRejectsImportCycle(t *testing.T) {
	_, err := loadModule(writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport _ \"m/b\"\n",
		"b/b.go": "package b\n\nimport _ \"m/c\"\n",
		"c/c.go": "package c\n\nimport _ \"m/a\"\n",
	}))
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("got error %v, want an import cycle", err)
	}
	named := false
	for _, p := range []string{`"m/a"`, `"m/b"`, `"m/c"`} {
		named = named || strings.Contains(err.Error(), p)
	}
	if !named {
		t.Errorf("cycle error %q names no package on the cycle", err)
	}
}

// TestLoadOrdersDependenciesFirst: Result.Pkgs lists every local
// dependency before the package that imports it, whatever the sorted order
// of their paths.
func TestLoadOrdersDependenciesFirst(t *testing.T) {
	res, err := loadModule(writeModule(t, map[string]string{
		"app/app.go":       "package app\n\nimport (\n\t_ \"m/lib\"\n\t_ \"m/lib/util\"\n)\n",
		"lib/lib.go":       "package lib\n\nimport _ \"m/lib/util\"\n",
		"lib/util/util.go": "package util\n",
		"zz/zz.go":         "package zz\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int, len(res.Pkgs))
	for i, p := range res.Pkgs {
		pos[p.Path] = i
	}
	if len(pos) != 4 {
		t.Fatalf("loaded %d packages, want 4", len(pos))
	}
	for _, p := range res.Pkgs {
		for _, imp := range p.Types.Imports() {
			if i, local := pos[imp.Path()]; local && i > pos[p.Path] {
				t.Errorf("%s (position %d) listed after its importer %s (position %d)", imp.Path(), i, p.Path, pos[p.Path])
			}
		}
	}
}

// TestLoadErrorIsStable: an import that resolves outside the root fails
// the load with the same error on every run, naming the first importer in
// load order.
func TestLoadErrorIsStable(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport _ \"example.com/missing\"\n",
		"b/b.go": "package b\n\nimport _ \"example.com/absent\"\n",
	})
	var first string
	for run := 0; run < 5; run++ {
		_, err := loadModule(dir)
		if err == nil {
			t.Fatal("load succeeded with an unresolvable import")
		}
		if run == 0 {
			first = err.Error()
			if !strings.Contains(first, "m/a") || !strings.Contains(first, "example.com/missing") {
				t.Fatalf("error %q does not name m/a's import of example.com/missing", first)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: error %q, first run gave %q", run, err, first)
		}
	}
}
