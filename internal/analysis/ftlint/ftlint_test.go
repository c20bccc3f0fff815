package ftlint_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"failtrans/internal/analysis"
	"failtrans/internal/analysis/ftlint"
)

var (
	moduleOnce sync.Once
	moduleRes  *analysis.Result
	moduleErr  error
)

// lintModule runs the full suite over the whole module once per test
// binary; TestRepoTreeIsClean and TestEveryExportHasACaller share the load.
func lintModule(t *testing.T) *analysis.Result {
	t.Helper()
	moduleOnce.Do(func() { moduleRes, moduleErr = ftlint.Run(".", nil) })
	if moduleErr != nil {
		t.Fatalf("ftlint.Run: %v", moduleErr)
	}
	return moduleRes
}

// TestRepoTreeIsClean is the regression that keeps the repository
// lint-clean: the full ftlint suite over the whole module must report
// nothing. Any new finding either gets fixed or gets a reasoned
// suppression before this test passes again.
func TestRepoTreeIsClean(t *testing.T) {
	res := lintModule(t)
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

// keepUncalled lists the exported functions and methods that
// TestEveryExportHasACaller lets stand without a non-test caller, each
// with the reason it stays.
var keepUncalled = map[string]string{
	"internal/recovery.FaultTimeline.ViolatesLoseWork": "Lose-work oracle of the failtrans.FaultTimeline API; ROADMAP's Lose-work-on-the-dangerous-path item is its planned study caller",
	"internal/recovery.FaultTimeline.RecoverySucceeds": "recovery-success oracle of the failtrans.FaultTimeline API; same planned caller as ViolatesLoseWork",
	"internal/recovery.ExtendsLegal":                   "legality criterion of arXiv:2407.06738; ROADMAP's recovery-of-recovery item is its planned caller",
	"internal/recovery.ConsistentAgainstAny":           "consistency criterion of arXiv:2407.06738; ROADMAP's recovery-of-recovery item is its planned caller",
	"internal/kernel.Kernel.ExpandResources":           "the documented target of dc.ExpandResourcesOnCrash; ROADMAP's design-space item measures it",
	"internal/sim.World.DeliverSignal":                 "the only way to deliver a signal; nvi and dc tests use it across packages",
	"internal/apps/treadmarks.dsm.AcquireLock":         "lock state is part of the checkpoint image; removing it moves Figure 8's bytes",
	"internal/apps/treadmarks.dsm.ReleaseLock":         "lock state is part of the checkpoint image; removing it moves Figure 8's bytes",
	"internal/vista.Segment.Contents":                  "the transactional oracle behind CommitImage",
	"internal/stablestore.FileStore.Compact":           "crash-tested log compaction",
	"internal/stablestore.FileStore.Delete":            "writes the log's tombstone record, which replay and Compact handle and the crash tests tear",
	"internal/obs.ValidateChromeTrace":                 "test support shared across packages",
	"internal/fieldguard.Check":                        "test support shared across packages",
	"internal/analysis/analysistest.Run":               "test support shared across packages",
}

// TestEveryExportHasACaller keeps the module free of exported functions
// and methods that only tests reach: each one declared under internal/ or
// cmd/ needs a reference from some non-test file of the module (benchmark/
// included), unless it satisfies an interface or keepUncalled names it. A
// keepUncalled entry that gained a caller or no longer exists fails too.
func TestEveryExportHasACaller(t *testing.T) {
	uncalled, declared := uncalledExports(lintModule(t))
	for _, name := range uncalled {
		if _, ok := keepUncalled[name]; !ok {
			t.Errorf("%s is exported but no non-test file calls it: delete it, move it into the package's tests, or list it in keepUncalled with a reason", name)
		}
	}
	for name, reason := range keepUncalled {
		switch {
		case reason == "":
			t.Errorf("keepUncalled[%s] gives no reason", name)
		case !declared[name]:
			t.Errorf("keepUncalled lists %s, which no longer exists", name)
		case !slices.Contains(uncalled, name):
			t.Errorf("keepUncalled lists %s, which now has a caller", name)
		}
	}
}

// TestPlantedUncalledExportIsCaught: in a temp module, an exported
// function that only a test and its own recursion call is reported, while
// one a command calls and a method that satisfies fmt.Stringer are not.
func TestPlantedUncalledExportIsCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "scratch", "scratch.go"), `package scratch

import "strconv"

type Count int

func (c Count) String() string { return strconv.Itoa(int(c)) }

func Used() Count { return 1 }

func Dead(n int) int {
	if n > 0 {
		return Dead(n - 1)
	}
	return 0
}
`)
	write(t, filepath.Join(dir, "internal", "scratch", "scratch_test.go"), `package scratch

import "testing"

func TestDead(t *testing.T) { _ = Dead(1) }
`)
	write(t, filepath.Join(dir, "cmd", "x", "main.go"), `package main

import (
	"fmt"

	"failtrans/internal/scratch"
)

func main() { fmt.Println(scratch.Used()) }
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	if got, _ := uncalledExports(res); !slices.Equal(got, []string{"internal/scratch.Dead"}) {
		t.Errorf("uncalled exports %v, want exactly the planted internal/scratch.Dead", got)
	}
}

// TestPlantedUselessSuppressionIsCaught: in a temp module, a suppression
// that silences an allocation on a hot path and one that cuts a hot
// function's call edge stand, while one over a line that allocates nothing
// and one that cuts an edge out of a function no root reaches are reported;
// run over one package alone, which cannot see every caller a suppression
// may serve, none is.
func TestPlantedUselessSuppressionIsCaught(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "go.mod"), "module failtrans\n\ngo 1.22\n")
	write(t, filepath.Join(dir, "internal", "scratch", "scratch.go"), `package scratch

// Hot is a hot-path root.
//
//failtrans:hotpath
func Hot(b []byte) []byte {
	//failtrans:alloc planted: silences the make below
	buf := make([]byte, len(b))
	copy(buf, b)
	//failtrans:alloc planted: cuts the hot edge into cold
	cold(buf)
	//failtrans:alloc planted stale: the next line allocates nothing
	return buf
}

func cold(b []byte) []byte { return append([]byte(nil), b...) }

// Warm is reached from no root.
func Warm(b []byte) {
	//failtrans:alloc planted stale: Warm is not hot, so there is no edge to cut
	cold(b)
}
`)
	res, err := ftlint.Run(dir, nil)
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	var got []int
	for _, d := range res.Diags {
		if d.Analyzer != "directive" || !strings.Contains(d.Message, "silences no hotpathcheck finding") {
			t.Errorf("unexpected diagnostic: %s", analysis.FormatDiag(res.Fset, d))
			continue
		}
		got = append(got, res.Fset.Position(d.Pos).Line)
	}
	if want := []int{12, 20}; !slices.Equal(got, want) {
		t.Errorf("useless suppressions reported on lines %v, want %v", got, want)
	}
	res, err = ftlint.Run(dir, []string{"./internal/scratch"})
	if err != nil {
		t.Fatalf("ftlint.Run: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("a one-package run reported: %s", analysis.FormatDiag(res.Fset, d))
	}
}

// uncalledExports returns, sorted, the exported functions and methods
// declared in the non-test files of the module's internal/ and cmd/
// packages that no non-test file refers to outside their own body, and
// the set of every such name declared. A method that satisfies an
// interface is left out of both: a call through the interface reaches it.
// A name is "<dir>.<Func>" or "<dir>.<Type>.<Method>" with dir relative to
// the module root.
func uncalledExports(res *analysis.Result) (uncalled []string, declared map[string]bool) {
	ifaces := interfaceTypes(res.Pkgs)
	decls := map[*types.Func]*ast.FuncDecl{}
	names := map[*types.Func]string{}
	declared = map[string]bool{}
	for _, pkg := range res.Pkgs {
		dir, _ := strings.CutPrefix(pkg.Path, "failtrans/")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				name := dir + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := recvNamed(recv.Type())
					if satisfiesInterface(named, fn.Name(), ifaces) {
						continue
					}
					name = dir + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				declared[name] = true
				decls[fn], names[fn] = fd, name
			}
		}
	}
	called := map[*types.Func]bool{}
	for _, pkg := range res.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
				called[fn] = true
			}
		}
	}
	for fn, name := range names {
		if !called[fn] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	return uncalled, declared
}

// recvNamed is the named type of a method receiver T or *T.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// satisfiesInterface reports whether method is one of the methods through
// which *named (whose method set includes named's) implements one of ifaces.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// interfaceTypes collects the non-generic method-set interfaces the loaded
// packages can be called through: error, every interface type their code
// uses, and every interface declared at package level in them or in a
// package they import (fmt.Stringer, flag.Value, sort.Interface, ...).
func interfaceTypes(pkgs []*analysis.Package) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scopes := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		scopes[pkg.Types] = true
		for _, imp := range pkg.Types.Imports() {
			scopes[imp] = true
		}
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	for p := range scopes {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
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
		"internal/vista/vista.go":   2, // Segment.mem, Segment.savedReg
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
