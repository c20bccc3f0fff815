// Package analysis is a self-contained static-analysis framework for the
// failtrans invariant checkers (cmd/ftlint). It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a per-package Run
// function, reports Diagnostics, and exchanges typed facts attached to
// types.Objects — but is built entirely on the standard library
// (go/parser, go/types, and the source importer), because this module is
// deliberately dependency-free: it must build and lint itself offline.
//
// Two deliberate extensions over the x/tools API cover what a plain
// multichecker cannot express here:
//
//   - Facts flow in *both* directions. x/tools propagates facts strictly
//     from dependencies to dependents, but the hot-path annotation lives on
//     high-level entry points (dc, vista) whose callees sit in dependency
//     packages. The driver therefore runs every per-package pass first
//     (each exporting object facts) and then calls the Analyzer's optional
//     Finish hook once with the whole fact table, where whole-program
//     propagation (e.g. call-graph reachability) happens.
//
//   - Suppression directives are first-class. A finding on a line carrying
//     the analyzer's suppression tag (//failtrans:<tag> <reason>), or on
//     the line directly below it, is dropped by the driver — and the driver
//     itself reports any failtrans directive whose reason is missing, and
//     any suppression that silenced no finding and cut no propagation, so a
//     suppression can never be silent.
package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SuppressTag is the failtrans directive tag (without the
	// "failtrans:" prefix) that silences this analyzer's findings at a
	// site, e.g. "nondet". Empty means findings cannot be suppressed.
	SuppressTag string
	// Run analyzes one package. It may report diagnostics and export
	// object facts; cross-package work belongs in Finish.
	Run func(*Pass) error
	// Finish, if non-nil, runs once after every package's Run has
	// completed, with access to all facts the analyzer exported. This is
	// where whole-program propagation (call-graph reachability for the
	// hot-path checker) reports its diagnostics.
	Finish func(*Finish)
}

// A Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	driver   *driver
}

// Reportf records a finding at pos. Suppression filtering happens in the
// driver, so analyzers report unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.driver.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether a finding of this analyzer at pos would be
// silenced by a suppression directive. Analyzers only need it when a
// directive must also stop derived work (e.g. cutting a call-graph edge),
// since the driver already filters reported diagnostics. Asking does not
// count the directive as used: whether the cut mattered is known only to
// the Finish hook, which says so with Finish.Cut.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return len(p.driver.index.forcing(pos, p.Analyzer.SuppressTag)) > 0
}

// ExportObjectFact attaches fact to obj for this analyzer. Objects are
// shared across packages (one FileSet, one importer), so a Finish hook in
// any package sees facts exported by every other.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	p.driver.facts[factKey{p.Analyzer.Name, obj}] = fact
}

// ObjectFact returns the fact this analyzer attached to obj, if any.
func (p *Pass) ObjectFact(obj types.Object) (any, bool) {
	f, ok := p.driver.facts[factKey{p.Analyzer.Name, obj}]
	return f, ok
}

// A Finish gives an analyzer's Finish hook the whole-program view.
type Finish struct {
	Analyzer *Analyzer
	driver   *driver
}

// Reportf records a finding at pos, exactly as Pass.Reportf does.
func (f *Finish) Reportf(pos token.Pos, format string, args ...any) {
	f.driver.report(Diagnostic{Pos: pos, Analyzer: f.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Cut counts the suppression in force at pos as used: the Finish hook
// calls it for a propagation edge that Pass.Suppressed cut out of a
// function the propagation reached. A directive whose only cut is in a
// function nothing reaches silences nothing, and is reported as such.
func (f *Finish) Cut(pos token.Pos) {
	f.driver.suppressed(pos, f.Analyzer.SuppressTag)
}

// AllObjectFacts returns every (object, fact) pair this analyzer exported,
// sorted by the object's source position so iteration order — and hence
// any derived diagnostic order — is deterministic. (detlint would have
// something to say about ranging over the fact map directly.)
func (f *Finish) AllObjectFacts() []ObjectFact {
	var out []ObjectFact
	for k, v := range f.driver.facts {
		if k.analyzer == f.Analyzer.Name {
			out = append(out, ObjectFact{Object: k.obj, Fact: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.Pos() < out[j].Object.Pos() })
	return out
}

// ObjectFact is one exported fact with the object it describes.
type ObjectFact struct {
	Object types.Object
	Fact   any
}

type factKey struct {
	analyzer string
	obj      types.Object
}
