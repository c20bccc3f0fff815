// Package cowcheck enforces the Freeze/fork aliasing contract of the
// copy-on-write fork engine. A struct field annotated
//
//	//failtrans:cowshared privatizeLines,snapshotUndo — why it aliases
//
// may alias a frozen fork template's backing arrays (vista segment pages,
// kernel node/file maps, dc per-node logs, nvi line buffers). Writing
// through such a field — an index assignment, a copy into it, an append
// reassigned over it, or a mutating method call on it — is only legal on
// paths dominated by one of the named privatization calls, which replace
// the shared backing with a private copy first. PR 6's nvi bug (the
// insert path spliced into template-shared Lines without privatizeLines)
// is exactly the class this pass turns into a finding.
//
// The dominance check is flow-sensitive and intraprocedural, built on
// analysis/dataflow: a privatizer call in the same statement as the store
// counts (m[k] = cloneNode(n)), as does one on every branch ahead of it;
// a call on only one arm of an if does not. Stores inside the privatizers
// themselves are exempt (they implement the copy), as are stores through
// objects the function provably constructed fresh (composite literals,
// new). Privatizer resolution exports object facts on the annotated
// fields, so a store in a dependent package is checked against the
// defining package's privatizers.
//
// //failtrans:cowok <reason> suppresses a finding; the annotation payload
// "none" declares a field with no privatizer, whose every store must carry
// such a written justification (dc's capacity-clamped log views).
package cowcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"failtrans/internal/analysis"
	"failtrans/internal/analysis/dataflow"
)

// Fact is attached to each //failtrans:cowshared field variable.
type Fact struct {
	// Struct and Field name the annotated site for messages.
	Struct, Field string
	// Privatizers are the resolved functions whose call must dominate
	// every store through the field. Empty for "none".
	Privatizers []*types.Func
	// Names is the privatizer list as written.
	Names []string
}

// New returns the cowcheck analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "cowcheck",
		Doc:         "stores to //failtrans:cowshared fields must be dominated by their privatizing call",
		SuppressTag: analysis.TagCowok,
		Run:         run,
	}
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, info: pass.Pkg.Info}
	for _, f := range pass.Pkg.Files {
		c.collectAnnotations(f)
	}
	for _, f := range pass.Pkg.Files {
		c.collectMutators(f)
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	info *types.Info
	// mutators are this package's methods that write through their
	// receiver's backing (an index or pointer store rooted at the
	// receiver, a field store through a pointer receiver included), so
	// e.bits.set(p) counts as a store to bits and db.Index.Put(k, v) as
	// one to Index.
	mutators map[*types.Func]bool
}

// fact returns the cowshared fact for a field object, if any — whether
// exported by this package or by a dependency.
func (c *checker) fact(obj types.Object) (*Fact, bool) {
	if obj == nil {
		return nil, false
	}
	f, ok := c.pass.ObjectFact(obj)
	if !ok {
		return nil, false
	}
	cf, ok := f.(*Fact)
	return cf, ok
}

// collectAnnotations resolves every cowshared field annotation of one file
// and exports a Fact per annotated field.
func (c *checker) collectAnnotations(f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			tobj := c.info.Defs[ts.Name]
			for _, field := range st.Fields.List {
				d, ok := analysis.FindDirective(field.Doc, analysis.TagCowshared)
				if !ok {
					d, ok = analysis.FindDirective(field.Comment, analysis.TagCowshared)
				}
				if !ok {
					continue
				}
				fact := c.resolveFact(ts.Name.Name, tobj, field, d)
				for _, name := range field.Names {
					if fv, ok := c.info.Defs[name].(*types.Var); ok {
						ff := *fact
						ff.Field = name.Name
						c.pass.ExportObjectFact(fv, &ff)
					}
				}
				if len(field.Names) == 0 {
					c.pass.Reportf(d.Pos, "cowshared annotation on an embedded field is not supported")
				}
			}
		}
	}
}

// resolveFact parses the directive payload ("priv1,priv2 [prose]" or
// "none") and resolves each privatizer name against the struct's method
// set and the package scope.
func (c *checker) resolveFact(structName string, tobj types.Object, field *ast.Field, d analysis.Directive) *Fact {
	fact := &Fact{Struct: structName}
	list, _, _ := strings.Cut(d.Reason, " ")
	if list == "" || list == "none" || list == "-" {
		return fact
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fact.Names = append(fact.Names, name)
		fn := c.lookupPrivatizer(tobj, name)
		if fn == nil {
			c.pass.Reportf(d.Pos, "cowshared names unknown privatizer %q for field %s.%s (not a method of %s or a package function)",
				name, structName, fieldLabel(field), structName)
			continue
		}
		fact.Privatizers = append(fact.Privatizers, fn)
	}
	return fact
}

func fieldLabel(field *ast.Field) string {
	var names []string
	for _, n := range field.Names {
		names = append(names, n.Name)
	}
	if len(names) == 0 {
		return "(embedded)"
	}
	return strings.Join(names, ",")
}

func (c *checker) lookupPrivatizer(tobj types.Object, name string) *types.Func {
	if tn, ok := tobj.(*types.TypeName); ok {
		recv := tn.Type()
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			recv = types.NewPointer(recv)
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, c.pass.Pkg.Types, name)
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	if fn, ok := c.pass.Pkg.Types.Scope().Lookup(name).(*types.Func); ok {
		return fn
	}
	return nil
}

// collectMutators marks this package's methods whose bodies store through
// their receiver's backing.
func (c *checker) collectMutators(f *ast.File) {
	if c.mutators == nil {
		c.mutators = make(map[*types.Func]bool)
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
			continue
		}
		var recvObj types.Object
		if names := fd.Recv.List[0].Names; len(names) == 1 {
			recvObj = c.info.Defs[names[0]]
		}
		if recvObj == nil {
			continue
		}
		fn, ok := c.info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		writes := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if throughObject(c.info, lhs, recvObj) {
						writes = true
					}
				}
			case *ast.IncDecStmt:
				if throughObject(c.info, n.X, recvObj) {
					writes = true
				}
			}
			return !writes
		})
		if writes {
			c.mutators[fn] = true
		}
	}
}

// throughObject reports whether expr is a store target that writes through
// obj's backing: at least one index or pointer dereference above a path
// rooted at obj. Selecting a field through a pointer dereferences it.
func throughObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	deref := false
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr, deref = x.X, true
		case *ast.StarExpr:
			expr, deref = x.X, true
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, ptr := tv.Type.Underlying().(*types.Pointer); ptr {
					deref = true
				}
			}
			expr = x.X
		case *ast.Ident:
			return deref && info.Uses[x] == obj
		default:
			return false
		}
	}
}

// A storeSite is one candidate write through an annotated field.
type storeSite struct {
	node ast.Node  // located in the CFG
	pos  token.Pos // reported position
	fact *Fact
	root types.Object // leftmost base object, for exemptions
	verb string
}

// fieldPath resolves expr as a path rooted at a cowshared field. When
// needDeref is set, at least one index/dereference/slice step must sit
// above the field (a plain `x.F = v` only replaces the header).
func (c *checker) fieldPath(expr ast.Expr, needDeref bool) (*Fact, types.Object, bool) {
	deref := false
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr, deref = x.X, true
		case *ast.StarExpr:
			expr, deref = x.X, true
		case *ast.SliceExpr:
			// Slicing narrows a view; as a copy destination it still
			// writes the shared backing.
			expr, deref = x.X, true
		case *ast.SelectorExpr:
			if fact, ok := c.fact(c.info.Uses[x.Sel]); ok && (deref || !needDeref) {
				return fact, rootObject(c.info, x.X), true
			}
			expr = x.X
		case *ast.Ident:
			if fact, ok := c.fact(c.info.Uses[x]); ok && (deref || !needDeref) {
				// A field made visible without selection (method body
				// shorthand does not exist in Go, but composite-literal
				// keys and labels land here harmlessly).
				return fact, nil, true
			}
			return nil, nil, false
		default:
			return nil, nil, false
		}
	}
}

func rootObject(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// appendOverField reports whether rhs is append(f, ...) or
// append(f[:n], ...) over the same annotated field object.
func (c *checker) appendOverField(rhs ast.Expr, fieldObj types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := c.info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	if sl, ok := arg.(*ast.SliceExpr); ok {
		arg = sl.X
	}
	return analysis.ExprObject(c.info, arg) == fieldObj
}

// checkFunc finds the candidate stores of one function and reports those
// not dominated by a privatizer call.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fn, _ := c.info.Defs[fd.Name].(*types.Func)
	var sites []storeSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if fact, root, ok := c.fieldPath(lhs, true); ok {
					sites = append(sites, storeSite{n, lhs.Pos(), fact, root, "store through"})
					continue
				}
				// x.F = append(x.F, ...): same backing when capacity
				// allows, so the reassignment idiom is still a write.
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				fieldObj := c.info.Uses[sel.Sel]
				fact, ok := c.fact(fieldObj)
				if !ok {
					continue
				}
				if c.appendOverField(n.Rhs[i], fieldObj) {
					sites = append(sites, storeSite{n, lhs.Pos(), fact, rootObject(c.info, sel.X), "append over"})
				}
			}
		case *ast.IncDecStmt:
			if fact, root, ok := c.fieldPath(n.X, true); ok {
				sites = append(sites, storeSite{n, n.X.Pos(), fact, root, "store through"})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin {
					if fact, root, ok := c.fieldPath(n.Args[0], false); ok {
						sites = append(sites, storeSite{n, n.Args[0].Pos(), fact, root, "copy into"})
					}
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if callee := analysis.CalleeFunc(c.info, n); callee != nil && c.mutators[callee] {
					if fact, root, ok := c.fieldPath(sel.X, false); ok {
						sites = append(sites, storeSite{n, n.Pos(), fact, root,
							"mutating call " + callee.Name() + " on"})
					}
				}
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}
	fresh := freshLocals(c.info, fd.Body)
	var cfg *dataflow.Graph
	for _, s := range sites {
		if fn != nil && isPrivatizer(fn, s.fact) {
			continue // the privatizer implements the copy
		}
		if s.root != nil && fresh[s.root] {
			continue // function-local fresh object, nothing shared yet
		}
		if cfg == nil {
			cfg = dataflow.New(fd.Body)
		}
		if len(s.fact.Privatizers) > 0 && cfg.GuardedAt(s.node, c.guardPred(s)) {
			continue
		}
		want := "a dominating call to " + strings.Join(s.fact.Names, " or ")
		if len(s.fact.Privatizers) == 0 {
			want = "a written //failtrans:cowok justification (field has no privatizer)"
		}
		c.pass.Reportf(s.pos,
			"%s COW-shared field %s.%s may hit a frozen fork template's backing; needs %s",
			s.verb, s.fact.Struct, s.fact.Field, want)
	}
}

func isPrivatizer(fn *types.Func, fact *Fact) bool {
	for _, p := range fact.Privatizers {
		if p == fn {
			return true
		}
	}
	return false
}

// guardPred builds the dataflow guard predicate: a call to one of the
// fact's privatizers, on the same receiver as the store when both sides
// resolve to simple variables.
func (c *checker) guardPred(s storeSite) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		callee := analysis.CalleeFunc(c.info, call)
		if callee == nil || !isPrivatizer(callee, s.fact) {
			return false
		}
		if sig, _ := callee.Type().(*types.Signature); sig != nil && sig.Recv() == nil {
			return true // package-level privatizer (cloneNode)
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		guardRoot := rootObject(c.info, sel.X)
		if guardRoot == nil || s.root == nil {
			return true
		}
		return guardRoot == s.root
	}
}

// freshLocals collects variables this function binds to provably fresh
// objects — composite literals, their addresses, or new(T) — whose backing
// cannot alias a frozen template. A value copy (`ne := *e`) is NOT fresh:
// it duplicates slice headers and map references, not their backing.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(name *ast.Ident, rhs ast.Expr) {
		if name == nil || rhs == nil || name.Name == "_" {
			return
		}
		obj := info.Defs[name]
		if obj == nil {
			return
		}
		switch x := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			fresh[obj] = true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					fresh[obj] = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					fresh[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					mark(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					mark(name, n.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}
