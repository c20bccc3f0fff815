// Package hotpath statically pins the zero-allocation property of the
// commit hot path — the static companion of the AllocsPerRun regression
// tests. A function whose doc comment carries //failtrans:hotpath is a
// hot-path root (the vista dirty-bitset commit cycle, the dc checkpoint
// serializer); the analyzer propagates hotness through statically-resolved
// calls — across package boundaries, via object facts — and reports every
// construct in a hot function that the Go compiler turns into a heap
// allocation or that is hostile to allocation-freedom:
//
//   - make/new calls and map/slice composite literals (fresh backing store)
//   - composite literals whose address escapes (&T{...})
//   - implicit or explicit conversions of concrete values to interface
//     types, and string<->[]byte/[]rune conversions
//   - any fmt call (formatting allocates and walks interfaces)
//   - closures that capture enclosing locals by reference
//   - append whose result is neither assigned back to the slice it extends
//     nor returned (the Append* idiom), so the grown capacity is lost
//
// `//failtrans:alloc <reason>` on the line (or the line above) silences a
// finding; on a call it also stops hot-path propagation through that call
// (a sanctioned cold branch, e.g. lazy one-time initialization). Calls
// through interfaces and function values are propagation boundaries:
// dynamic dispatch is checked by the runtime AllocsPerRun tests instead.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"failtrans/internal/analysis"
)

// New returns the hotpathcheck analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "hotpathcheck",
		Doc:         "report allocation sites reachable from //failtrans:hotpath roots",
		SuppressTag: analysis.TagAlloc,
		Run:         run,
		Finish:      finish,
	}
}

// A summary is the per-function fact: annotation state, statically-resolved
// callees (facts cross package boundaries through it), the calls a
// suppression cut out of them, and the allocation findings to surface
// should the function prove hot.
type summary struct {
	fn        *types.Func
	annotated bool
	callees   []*types.Func
	cuts      []token.Pos
	findings  []finding
}

type finding struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &summary{fn: obj, annotated: analysis.HotpathAnnotated(fd.Doc)}
			collect(pass, fd, s)
			pass.ExportObjectFact(obj, s)
		}
	}
	return nil
}

// collect walks one function body, recording callees and allocation
// findings into its summary.
func collect(pass *analysis.Pass, fd *ast.FuncDecl, s *summary) {
	info := pass.Pkg.Info
	sanctioned := sanctionedAppends(info, fd.Body)
	// callFuns records every expression in call position, so a selector
	// used as a value — x.Method without the call — is told apart from
	// x.Method(...): the former binds its receiver into a heap closure.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(c.Fun)] = true
		}
		return true
	})
	add := func(pos token.Pos, format string, args ...any) {
		s.findings = append(s.findings, finding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, info, n, s, sanctioned, add)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !callFuns[n] {
				add(n.Pos(), "method value %s binds its receiver into a heap-allocated closure (use a method expression or a func literal on the stack)",
					n.Sel.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "address-of composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			case *types.Slice:
				add(n.Pos(), "slice literal allocates its backing array")
			}
		case *ast.FuncLit:
			if name, ok := capturedLocal(info, fd, n); ok {
				add(n.Pos(), "closure captures %q by reference and is heap-allocated", name)
			}
		}
		return true
	})
}

// checkCall records the call's propagation edge and any allocation finding
// it implies.
func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, s *summary, sanctioned map[*ast.CallExpr]bool, add func(token.Pos, string, ...any)) {
	// Builtins: make/new allocate; append must follow the reuse idiom.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				add(call.Pos(), "%s allocates", b.Name())
			case "append":
				if !sanctioned[call] {
					add(call.Pos(), "append result is neither assigned back to its slice nor returned; grown capacity is lost")
				}
			}
			return
		}
	}
	tv := info.Types[call.Fun]
	if tv.IsType() {
		// Explicit conversion.
		checkConversion(info, call, tv.Type, add)
		return
	}
	if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			add(call.Pos(), "fmt.%s allocates (formatting state and interface walks)", fn.Name())
		} else if pass.Suppressed(call.Pos()) {
			// A suppressed call is a sanctioned cold branch: the edge is
			// cut and hotness does not propagate into the callee.
			s.cuts = append(s.cuts, call.Pos())
		} else {
			s.callees = append(s.callees, fn)
		}
	}
	// Implicit interface conversions at the call boundary.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed whole; no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isConcreteToInterface(info, arg, pt) {
			add(arg.Pos(), "argument converts concrete %s to interface %s (may allocate)",
				info.Types[arg].Type, pt)
		}
	}
}

// checkConversion flags explicit conversions that allocate: concrete →
// interface boxing and string <-> byte/rune slice copies.
func checkConversion(info *types.Info, call *ast.CallExpr, target types.Type, add func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if isConcreteToInterface(info, arg, target) {
		add(call.Pos(), "conversion boxes concrete %s into interface %s", info.Types[arg].Type, target)
		return
	}
	src := info.Types[arg].Type
	if src == nil {
		return
	}
	tu, su := target.Underlying(), src.Underlying()
	tSlice, tIsSlice := tu.(*types.Slice)
	_, sIsString := su.(*types.Basic)
	if tIsSlice && sIsString && isByteOrRune(tSlice.Elem()) && isStringType(su) {
		add(call.Pos(), "string to %s conversion copies", target)
	}
	if isStringType(tu) {
		if sSlice, ok := su.(*types.Slice); ok && isByteOrRune(sSlice.Elem()) {
			add(call.Pos(), "%s to string conversion copies", src)
		}
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// isConcreteToInterface reports whether assigning arg to a parameter (or
// conversion target) of type pt boxes a concrete value into an interface.
func isConcreteToInterface(info *types.Info, arg ast.Expr, pt types.Type) bool {
	if pt == nil || !types.IsInterface(pt) {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// sanctionedAppends marks append calls following the two zero-alloc idioms:
// the result is assigned back to the (possibly resliced) slice it extends,
// or it is returned directly (the AppendContents/AppendCheckpointImage
// convention, where the caller owns the buffer).
func sanctionedAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ok := make(map[*ast.CallExpr]bool)
	isAppend := func(e ast.Expr) (*ast.CallExpr, bool) {
		call, isCall := ast.Unparen(e).(*ast.CallExpr)
		if !isCall {
			return nil, false
		}
		id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
		if !isIdent {
			return nil, false
		}
		b, isBuiltin := info.Uses[id].(*types.Builtin)
		return call, isBuiltin && b.Name() == "append"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, is := isAppend(rhs)
				if !is || len(call.Args) == 0 {
					continue
				}
				if types.ExprString(stripSlices(call.Args[0])) == types.ExprString(n.Lhs[i]) {
					ok[call] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, is := isAppend(res); is {
					ok[call] = true
				}
			}
		}
		return true
	})
	return ok
}

// stripSlices peels reslicing off an expression, so append(buf[:0], ...)
// assigned to buf counts as reuse of buf.
func stripSlices(e ast.Expr) ast.Expr {
	for {
		se, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return ast.Unparen(e)
		}
		e = se.X
	}
}

// capturedLocal returns the name of a variable of the enclosing function
// that the literal captures by reference, if any.
func capturedLocal(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !v.Pos().IsValid() {
			return true
		}
		// Captured: declared inside the enclosing function but outside the
		// literal itself.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

// finish propagates hotness from annotated roots through the recorded call
// edges — the cross-package fact walk — and reports the findings of every
// function that proves hot.
func finish(f *analysis.Finish) {
	sums := make(map[types.Object]*summary)
	var roots []*summary
	for _, of := range f.AllObjectFacts() {
		s := of.Fact.(*summary)
		sums[of.Object] = s
		if s.annotated {
			roots = append(roots, s)
		}
	}
	// AllObjectFacts is position-sorted, so the BFS — and each function's
	// attributed root — is deterministic.
	hot := make(map[types.Object]string)
	var queue []types.Object
	for _, r := range roots {
		if _, seen := hot[r.fn]; !seen {
			hot[r.fn] = funcLabel(r.fn)
			queue = append(queue, r.fn)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		s := sums[obj]
		for _, callee := range s.callees {
			cs, analyzed := sums[callee]
			if !analyzed {
				continue // outside the analyzed tree (stdlib): boundary
			}
			if _, seen := hot[cs.fn]; !seen {
				hot[cs.fn] = hot[obj]
				queue = append(queue, cs.fn)
			}
		}
	}
	for _, of := range f.AllObjectFacts() {
		root, isHot := hot[of.Object]
		if !isHot {
			continue
		}
		s := of.Fact.(*summary)
		for _, fd := range s.findings {
			f.Reportf(fd.pos, "hot path (via %s): %s", root, fd.msg)
		}
		for _, pos := range s.cuts {
			f.Cut(pos)
		}
	}
}

// funcLabel renders a function compactly: pkg.Func or pkg.(*Recv).Method.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		star := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			star = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			name = "(" + star + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
