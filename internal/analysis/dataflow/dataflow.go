// Package dataflow builds intraprocedural control-flow graphs over go/ast
// and answers the guard-dominance query the COW aliasing checker needs:
// "does every execution path from the function entry to this node evaluate
// one of these guard expressions first?". cowcheck instantiates the guard
// predicate with privatization calls (touchPage, ownFile, snapshotUndo,
// ...) and the target with a store into a template-shared field, turning
// the PR 6 "scribbled on a frozen fork template" bug class into a static
// finding.
//
// The graph is statement-level: each basic block holds a sequence of
// units, where a unit is either a simple statement or the evaluated
// sub-part of a compound one (an if condition, a for post-statement, a
// switch tag). Calls inside defer and go statements do not execute at the
// point they appear, so their units never satisfy a guard; the same goes
// for calls inside function literals, which only run when the closure is
// invoked. An explicit panic(...) statement terminates its path.
//
// The query is deliberately stronger than single-block dominance: a guard
// placed in both arms of an if guards the code after the join even though
// neither arm dominates it. GuardedAt therefore searches for a guard-free
// path from the entry rather than intersecting dominator sets.
package dataflow

import (
	"go/ast"
	"go/token"
)

// A unit is one atomically-executed node within a block.
type unit struct {
	node ast.Node
	// noGuard marks units whose calls do not run at this program point
	// (defer/go statements evaluate operands but invoke later/elsewhere).
	noGuard bool
}

// A Block is a maximal straight-line run of units.
type Block struct {
	units []unit
	succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	entry  *Block
	blocks []*Block
}

// New builds the CFG for one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*Block)}
	g.entry = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	return g
}

type breakable struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type builder struct {
	g      *Graph
	cur    *Block // nil: current point is unreachable
	stack  []breakable
	labels map[string]*Block
	// label is a pending statement label, consumed by the next
	// loop/switch/select so labeled break/continue resolve.
	label string
	// fallTo is the next case clause's block, the target of a
	// fallthrough statement inside the current clause.
	fallTo *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// emit appends a unit at the current point. Unreachable code (after a
// return or branch) is parked in a fresh predecessor-less block, which
// GuardedAt treats as never executed.
func (b *builder) emit(n ast.Node, noGuard bool) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.units = append(b.cur.units, unit{n, noGuard})
}

// jump adds an edge from the current point to `to`, if both exist.
func (b *builder) jump(to *Block) {
	if b.cur != nil && to != nil {
		b.cur.succs = append(b.cur.succs, to)
	}
}

// ensure returns the current block, materializing one for unreachable
// regions so compound statements always have a dispatch point.
func (b *builder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) labelBlock(name string) *Block {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock()
		b.labels[name] = blk
	}
	return blk
}

// takeLabel consumes the pending statement label for the construct that
// claims it.
func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// find pops breakable-stack entries down to the one a break/continue with
// the given label targets (empty label: the innermost eligible one).
func (b *builder) findBreakable(label string, needCont bool) *breakable {
	for i := len(b.stack) - 1; i >= 0; i-- {
		e := &b.stack[i]
		if needCont && e.cont == nil {
			continue
		}
		if label == "" || e.label == label {
			return e
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		b.jump(blk)
		b.cur = blk
		b.label = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		b.takeLabel()
		b.emit(s.Init, false)
		b.emit(s.Cond, false)
		cond := b.ensure()
		after := b.newBlock()
		then := b.newBlock()
		cond.succs = append(cond.succs, then)
		b.cur = then
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			cond.succs = append(cond.succs, els)
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		} else {
			cond.succs = append(cond.succs, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		b.emit(s.Init, false)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		b.emit(s.Cond, false)
		head = b.ensure() // Cond emits into head; keep the handle honest
		body := b.newBlock()
		after := b.newBlock()
		post := b.newBlock()
		head.succs = append(head.succs, body)
		if s.Cond != nil {
			head.succs = append(head.succs, after)
		}
		b.stack = append(b.stack, breakable{label: label, brk: after, cont: post})
		b.cur = body
		b.stmt(s.Body)
		b.jump(post)
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = post
		b.emit(s.Post, false)
		b.jump(head)
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.emit(s.X, false)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		body := b.newBlock()
		after := b.newBlock()
		head.succs = append(head.succs, body, after)
		b.stack = append(b.stack, breakable{label: label, brk: after, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.jump(head)
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = after

	case *ast.SwitchStmt:
		b.switchLike(s.Init, nil, s.Tag, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, s.Assign, nil, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.ensure()
		after := b.newBlock()
		b.stack = append(b.stack, breakable{label: label, brk: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			head.succs = append(head.succs, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.emit(cc.Comm, false)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = after

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if e := b.findBreakable(label, false); e != nil {
				b.jump(e.brk)
			}
			b.cur = nil
		case token.CONTINUE:
			if e := b.findBreakable(label, true); e != nil {
				b.jump(e.cont)
			}
			b.cur = nil
		case token.GOTO:
			b.jump(b.labelBlock(label))
			b.cur = nil
		case token.FALLTHROUGH:
			b.jump(b.fallTo)
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.emit(s, false)
		b.cur = nil

	case *ast.DeferStmt:
		b.emit(s, true)

	case *ast.GoStmt:
		b.emit(s, true)

	case *ast.ExprStmt:
		b.emit(s, false)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.cur = nil
			}
		}

	case nil:
		// nothing

	default:
		// Assign, IncDec, Send, Decl, Empty, ...
		b.emit(s, false)
	}
}

// switchLike builds switch and type-switch statements; assign is the
// type-switch's `x := y.(type)` statement, tag the expression switch's tag.
func (b *builder) switchLike(init, assign ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.emit(init, false)
	b.emit(assign, false)
	if tag != nil {
		b.emit(tag, false)
	}
	head := b.ensure()
	after := b.newBlock()
	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		head.succs = append(head.succs, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.succs = append(head.succs, after)
	}
	b.stack = append(b.stack, breakable{label: label, brk: after})
	prevFall := b.fallTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(e, false)
		}
		if i+1 < len(clauses) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.stmtList(cc.Body)
		b.jump(after)
	}
	b.fallTo = prevFall
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

// containsGuard reports whether any executed node of the unit satisfies
// isGuard. Function-literal bodies are skipped: their calls run only when
// the closure does.
func (u unit) containsGuard(isGuard func(ast.Node) bool) bool {
	if u.noGuard {
		return false
	}
	found := false
	ast.Inspect(u.node, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil && isGuard(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// locate finds the block and unit index whose node encloses target,
// preferring the tightest enclosure (units never overlap except through
// nesting such as a closure inside a statement).
func (g *Graph) locate(target ast.Node) (*Block, int) {
	var bestB *Block
	bestI := -1
	var bestSpan token.Pos = -1
	for _, blk := range g.blocks {
		for i, u := range blk.units {
			if u.node.Pos() <= target.Pos() && target.End() <= u.node.End() {
				span := u.node.End() - u.node.Pos()
				if bestB == nil || span < bestSpan {
					bestB, bestI, bestSpan = blk, i, span
				}
			}
		}
	}
	return bestB, bestI
}

// GuardedAt reports whether every path from the function entry to target
// evaluates a node satisfying isGuard before reaching target. A guard in
// the same unit (statement) as the target counts: Go evaluates a
// statement's operands before completing its store, so
// `m[k] = cloneNode(n)` is privatized by its own right-hand side.
//
// If target cannot be located in the graph (e.g. it sits in unreachable
// code), GuardedAt returns true — such code never executes, so it cannot
// violate the contract.
func (g *Graph) GuardedAt(target ast.Node, isGuard func(ast.Node) bool) bool {
	tb, ti := g.locate(target)
	if tb == nil {
		return true
	}
	// Same unit, or an earlier unit in the target's own block.
	for i := ti; i >= 0; i-- {
		if tb.units[i].containsGuard(isGuard) {
			return true
		}
	}
	if tb == g.entry {
		return false
	}
	// Search for a guard-free path entry -> tb. A block may be traversed
	// only if no unit in it is a guard (passing through executes them
	// all); arrival at tb itself needs no such check — its prefix was
	// scanned above.
	guardFreeThrough := func(blk *Block) bool {
		for _, u := range blk.units {
			if u.containsGuard(isGuard) {
				return false
			}
		}
		return true
	}
	if !guardFreeThrough(g.entry) {
		return true
	}
	seen := map[*Block]bool{g.entry: true}
	work := []*Block{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, succ := range blk.succs {
			if succ == tb {
				return false // guard-free path reaches the target block
			}
			if !seen[succ] && guardFreeThrough(succ) {
				seen[succ] = true
				work = append(work, succ)
			}
		}
	}
	return true
}
