// Package interceptcheck enforces interception completeness, the paper's
// central contract: generic recovery is only sound when every
// externally-visible effect of the recoverable core flows through the
// intercepted event alphabet. An effect the recovery layer never sees —
// a direct file write, a socket send, a wall-clock read feeding output —
// silently breaks Save-work, because after a failure the environment has
// committed to an event the protocol cannot re-derive.
//
// The pass classifies functions three ways: workload (defined in a
// recoverable-core package: the apps, the simulated kernel, the protocol
// stacks), boundary (defined in an alphabet-implementation package — dc,
// sim, stablestore — or annotated //failtrans:intercepted in its doc
// comment), and everything else. It collects, per function, the direct
// effectful calls (os file mutation, any net/syscall/os-exec use, writes
// on *os.File, wall-clock reads, printing to the real stdout, and any
// direct use of the stable-storage API) plus the static call edges, then
// runs whole-program reachability from every workload function, stopping
// at boundaries: an effect inside or reachable from workload code without
// passing a boundary is a finding. Effects below a boundary are the
// alphabet's own implementation and sanctioned.
//
// //failtrans:uninterceptible <reason> suppresses a finding at the effect
// site and, on a call line, stops reachability through that call — the
// mandatory-reason escape hatch for effects the author asserts cannot be
// intercepted.
package interceptcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"failtrans/internal/analysis"
)

// Config names the package sets the contract is defined over. Entries are
// import-path prefixes: "x/internal/apps" covers "x/internal/apps/nvi".
type Config struct {
	// Core packages hold workload code: every function defined there is a
	// reachability root.
	Core []string
	// Boundary packages implement the intercepted event alphabet;
	// reachability stops at their functions, and their own effects are
	// sanctioned.
	Boundary []string
	// StableStore packages may only be used from dc; any direct call from
	// reachable workload code is an effect.
	StableStore []string
}

// New returns the interceptcheck analyzer for the given package sets.
func New(cfg Config) *analysis.Analyzer {
	c := &checker{cfg: cfg}
	return &analysis.Analyzer{
		Name:        "interceptcheck",
		Doc:         "externally-visible effects in the recoverable core must flow through the intercepted event alphabet",
		SuppressTag: analysis.TagUninterceptible,
		Run:         c.run,
		Finish:      c.finish,
	}
}

// fnFact summarizes one function for the whole-program phase.
type fnFact struct {
	fn       *types.Func
	core     bool
	boundary bool
	effects  []effect
	callees  []*types.Func
	cuts     []token.Pos // calls a suppression removed from effects and callees
}

type effect struct {
	pos  token.Pos
	what string
}

type checker struct {
	cfg Config
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func (c *checker) run(pass *analysis.Pass) error {
	path := pass.Pkg.Path
	core := hasPrefix(path, c.cfg.Core)
	boundaryPkg := hasPrefix(path, c.cfg.Boundary)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := &fnFact{
				fn:       fn,
				core:     core,
				boundary: boundaryPkg || analysis.InterceptedAnnotated(fd.Doc),
			}
			c.collect(pass, fd.Body, fact)
			pass.ExportObjectFact(fn, fact)
		}
	}
	return nil
}

// collect gathers one function's direct effects and call edges. A call on
// a line suppressed with //failtrans:uninterceptible contributes neither:
// the written reason sanctions the whole subtree.
func (c *checker) collect(pass *analysis.Pass, body *ast.BlockStmt, fact *fnFact) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pass.Suppressed(call.Pos()) {
			fact.cuts = append(fact.cuts, call.Pos())
			return true // reasoned escape hatch: no effect, no edge
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if b.Name() == "print" || b.Name() == "println" {
					fact.effects = append(fact.effects, effect{call.Pos(), "builtin " + b.Name() + " (writes the real stderr)"})
				}
				return true
			}
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil {
			return true
		}
		if what, ok := c.effectOf(fn, call, info); ok {
			fact.effects = append(fact.effects, effect{call.Pos(), what})
			return true
		}
		fact.callees = append(fact.callees, fn)
		return true
	})
}

// osFileMutators are the os package functions that change the real file
// system or process environment.
var osFileMutators = map[string]bool{
	"Create": true, "OpenFile": true, "WriteFile": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "CreateTemp": true,
	"Truncate": true, "Chmod": true, "Chown": true, "Chtimes": true,
	"Link": true, "Symlink": true, "Setenv": true, "Unsetenv": true,
	"Exit": true, "StartProcess": true, "Pipe": true,
}

// osFileMethods are the (*os.File) methods that emit bytes to the real
// world.
var osFileMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true,
	"Truncate": true, "Sync": true, "Chmod": true,
}

// wallClock are the time functions whose results make output depend on
// the real clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// effectOf classifies a resolved call as an externally-visible effect.
func (c *checker) effectOf(fn *types.Func, call *ast.CallExpr, info *types.Info) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	switch pkg.Path() {
	case "os":
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				if named, ok := ptr.Elem().(*types.Named); ok &&
					named.Obj().Name() == "File" && osFileMethods[name] {
					return "(*os.File)." + name, true
				}
			}
			return "", false
		}
		if osFileMutators[name] {
			return "os." + name, true
		}
	case "time":
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() == nil && wallClock[name] {
			return "time." + name + " (wall clock)", true
		}
	case "fmt":
		switch name {
		case "Print", "Println", "Printf":
			return "fmt." + name + " (writes the real stdout)", true
		case "Fprint", "Fprintln", "Fprintf":
			if len(call.Args) > 0 && isStdStream(info, call.Args[0]) {
				return "fmt." + name + " to os.Stdout/os.Stderr", true
			}
		}
	}
	root := pkg.Path()
	if i := strings.Index(root, "/"); i >= 0 {
		root = root[:i]
	}
	switch root {
	case "net", "syscall":
		return pkg.Path() + "." + name, true
	}
	if pkg.Path() == "os/exec" {
		return "os/exec." + name, true
	}
	if hasPrefix(pkg.Path(), c.cfg.StableStore) {
		return "direct stable-store call " + shortPath(pkg.Path()) + "." + name, true
	}
	return "", false
}

func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
}

func shortPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// finish runs whole-program reachability from every workload function and
// reports the effects of every function reached without crossing a
// boundary.
func (c *checker) finish(f *analysis.Finish) {
	facts := f.AllObjectFacts()
	byFn := make(map[*types.Func]*fnFact, len(facts))
	var roots []*fnFact
	for _, of := range facts {
		fact := of.Fact.(*fnFact)
		byFn[fact.fn] = fact
		if fact.core && !fact.boundary {
			roots = append(roots, fact)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].fn.Pos() < roots[j].fn.Pos() })

	// witness records, per reached function, the workload root that first
	// reaches it (deterministic: roots are position-sorted, BFS).
	witness := make(map[*types.Func]*types.Func)
	queue := make([]*fnFact, 0, len(roots))
	for _, r := range roots {
		if _, seen := witness[r.fn]; seen {
			continue
		}
		witness[r.fn] = r.fn
		queue = append(queue, r)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, callee := range cur.callees {
				cf, ok := byFn[callee]
				if !ok || cf.boundary {
					continue // unknown (stdlib/interface) or alphabet implementation
				}
				if _, seen := witness[callee]; seen {
					continue
				}
				witness[callee] = witness[cur.fn]
				queue = append(queue, cf)
			}
		}
	}

	for _, of := range facts { // position-sorted
		fact := of.Fact.(*fnFact)
		root, reached := witness[fact.fn]
		if !reached {
			continue
		}
		via := "in workload function " + fact.fn.FullName()
		if root != fact.fn {
			via = "reachable from workload function " + root.FullName()
		}
		for _, e := range fact.effects {
			f.Reportf(e.pos,
				"%s bypasses the intercepted event alphabet (%s); route it through the dc/kernel/sim interception surface or suppress with //failtrans:uninterceptible <reason>",
				e.what, via)
		}
		for _, pos := range fact.cuts {
			f.Cut(pos)
		}
	}
}
