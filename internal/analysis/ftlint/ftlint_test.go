package ftlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"failtrans/internal/analysis"
	"failtrans/internal/analysis/ftlint"
)

// TestRepoTreeIsClean is the regression that keeps the repository
// lint-clean: the full ftlint suite over the whole module must report
// nothing. Any new finding either gets fixed or gets a reasoned
// suppression before this test passes again.
func TestRepoTreeIsClean(t *testing.T) {
	res, err := ftlint.Run(".", nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	// No patterns means the whole module, not the subtree of ".".
	whole := false
	for _, p := range res.Pkgs {
		whole = whole || p.Path == "failtrans/cmd/ftbench"
	}
	if !whole {
		t.Errorf("ftlint.Run(\".\", nil) loaded %d packages without failtrans/cmd/ftbench", len(res.Pkgs))
	}
	for _, d := range res.Diags {
		t.Errorf("%s", analysis.FormatDiag(res.Fset, d))
	}
}

// TestPlantedNondetIsCaught: a module with a time.Now planted in
// internal/sim must fail the suite.
// It proves the clean run above is not vacuous.
func TestPlantedNondetIsCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "sim", "clock.go"), `package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the planted one: %v", len(res.Diags), res.Diags)
	}
	if d := res.Diags[0]; d.Analyzer != "detlint" || !strings.Contains(d.Message, "time.Now") {
		t.Errorf("wrong diagnostic for the plant: %s: %s", d.Analyzer, d.Message)
	}
}

// TestExtraDetPkgExtendsCore mirrors the -detpkg flag: a scratch package
// outside the deterministic core is ignored by default and checked once
// its import path is passed as an extra detlint package.
func TestExtraDetPkgExtendsCore(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "scratch", "scratch.go"), `package scratch

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Fatalf("scratch package flagged without -detpkg: %v", res.Diags)
	}
	res, err = ftlint.Run(dir, nil, "failtrans/internal/scratch")
	if err != nil {
		t.Fatalf("ftlint.Run with extra pkg: %v", err)
	}
	if len(res.Diags) != 1 || !strings.Contains(res.Diags[0].Message, "time.Now") {
		t.Fatalf("extra detlint package not enforced: %v", res.Diags)
	}
}

// TestPlantedCowStoreIsCaught plants the PR-6 bug shape in a temp module:
// a store through a //failtrans:cowshared field with no dominating
// privatizer call must yield a cowcheck finding.
func TestPlantedCowStoreIsCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "scratch", "scratch.go"), `package scratch

type Buf struct {
	//failtrans:cowshared privatize
	lines [][]byte
	shared bool
}

func (b *Buf) privatize() {
	if b.shared {
		out := make([][]byte, len(b.lines))
		copy(out, b.lines)
		b.lines = out
		b.shared = false
	}
}

func (b *Buf) Bad(i int) { b.lines[i] = nil }

func (b *Buf) Good(i int) {
	b.privatize()
	b.lines[i] = nil
}
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the planted one: %v", len(res.Diags), res.Diags)
	}
	if d := res.Diags[0]; d.Analyzer != "cowcheck" || !strings.Contains(d.Message, "Buf.lines") {
		t.Errorf("wrong diagnostic for the plant: %s: %s", d.Analyzer, d.Message)
	}
}

// TestPlantedEffectIsCaught plants an os.WriteFile inside an app workload
// package in a temp module: interceptcheck must report it as bypassing the
// intercepted event alphabet (the ISSUE's acceptance criterion).
func TestPlantedEffectIsCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "apps", "scratchapp", "app.go"), `package scratchapp

import "os"

func Step() error { return os.WriteFile("out", nil, 0o644) }
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the planted one: %v", len(res.Diags), res.Diags)
	}
	if d := res.Diags[0]; d.Analyzer != "interceptcheck" || !strings.Contains(d.Message, "os.WriteFile") {
		t.Errorf("wrong diagnostic for the plant: %s: %s", d.Analyzer, d.Message)
	}
}

// TestCowAnnotationsPresent pins the //failtrans:cowshared annotations the
// repo relies on, by exact count per file over the module's non-test Go:
// deleting one would silently shrink cowcheck's coverage, and a new shared
// field has to join this inventory on purpose.
func TestCowAnnotationsPresent(t *testing.T) {
	want := map[string]int{ // file under the module root -> cowshared annotations
		"internal/vista/vista.go":   1, // Segment.mem
		"internal/kernel/kernel.go": 1, // node.fs
		"internal/dc/dc.go":         1, // ndLog.segs
		"internal/apps/nvi/nvi.go":  1, // Editor.undo
	}
	got := map[string]int{}
	root := filepath.Join("..", "..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//failtrans:cowshared") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				got[filepath.ToSlash(rel)]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file, n := range want {
		if got[file] != n {
			t.Errorf("%s: %d //failtrans:cowshared annotations, want %d", file, got[file], n)
		}
	}
	for file, n := range got {
		if _, ok := want[file]; !ok {
			t.Errorf("%s: %d //failtrans:cowshared annotations outside the inventory", file, n)
		}
	}
}

// TestHotpathRootsAnnotated pins the hot-path annotations the repo relies
// on: deleting one would silently shrink hotpathcheck's coverage to
// nothing, so their presence is asserted here.
func TestHotpathRootsAnnotated(t *testing.T) {
	roots := map[string]int{ // file -> minimum number of hotpath annotations
		"../../vista/vista.go": 3, // (*Segment).SetContents, Commit, Rollback
		"../../sim/proc.go":    1, // (*Proc).AppendCheckpointImage
		"../../sim/fork.go":    1, // (*Proc).bumpRecvHW
		"../../dc/dc.go":       3, // (*DC).diffOne, AfterEvent, RecordND
		// The ND scratch: (*Ctx).Now, Rand, TakeSignal, Recv, Syscall,
		// AppendMsgRecord, AppendParts, OutputBytes; (*World).ndWord beside
		// the arenas.
		"../../sim/ctx.go":   8,
		"../../sim/world.go": 3, // (*World).allocMsg, allocBytes, ndWord
		// The readiness index: schedLess; (*World).schedTouch, schedReindex,
		// schedPick, schedInsert, schedPlace, schedDueInsert, schedDelete,
		// schedDrain, schedMerge.
		"../../sim/sched.go": 10,
		// The octree arena and the message path: (*Octree).node, Build,
		// step; (*TM).Step, encodeHead, stepBodies.
		"../../apps/treadmarks/barneshut.go": 3,
		"../../apps/treadmarks/program.go":   3,
		// Rect.Subtract, (*Layer).cut, (*Layout).spacingViolations, and the
		// command path (*Layout).Step.
		"../../apps/magic/magic.go":   4,
		"../../apps/postgres/page.go": 3, // (*Page).Insert, Delete, Overwrite
		"../../apps/postgres/db.go":   1, // the query cycle: (*DB).Step
		// The screen and file scratch: (*Editor).screenLine, writeFileStep,
		// and the render that emits the screen line, (*Editor).render.
		"../../apps/nvi/nvi.go": 3,
		// The echo path: (*Server).Step, (*Client).Step.
		"../../apps/fleet/fleet.go": 2,
		// The frame path: (*Server).Step, (*Client).Step.
		"../../apps/xpilot/xpilot.go": 2,
	}
	for file, min := range roots {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("read %s: %v", file, err)
			continue
		}
		if got := strings.Count(string(data), "//failtrans:hotpath"); got < min {
			t.Errorf("%s: %d //failtrans:hotpath annotations, want at least %d", file, got, min)
		}
	}
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
