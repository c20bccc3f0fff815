package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive tags understood by the toolchain. Like go:build directives,
// failtrans directives are written with no space after the comment marker:
//
//	//failtrans:nondet <reason>   silence a detlint finding
//	//failtrans:alloc <reason>    silence a hotpathcheck finding (and stop
//	                              hot-path propagation through a call on
//	                              that line)
//	//failtrans:errok <reason>    silence a durability finding
//	//failtrans:hotpath           mark a function as a zero-allocation
//	                              hot-path root (in its doc comment)
//	//failtrans:cowok <reason>    silence a cowcheck finding
//	//failtrans:cowshared <privatizers> [prose]
//	                              mark a struct field as possibly aliasing a
//	                              frozen fork template; <privatizers> is a
//	                              comma-separated list of the calls that
//	                              must dominate every store (or "none")
//	//failtrans:intercepted       mark a function as an interception-
//	                              alphabet boundary (in its doc comment)
//	//failtrans:uninterceptible <reason>
//	                              silence an interceptcheck finding and stop
//	                              alphabet-reachability through a call on
//	                              that line
//
// The suppression tags REQUIRE a human-readable reason; the driver
// reports a directive-level diagnostic when one is missing, so CI cannot
// go green with an unexplained suppression, and another for a suppression
// that silenced no finding of its analyzer and cut no propagation, so one
// cannot outlive the code it excused. A trailing suppression (code before
// it on the line) applies to findings on its own line; a standalone comment
// line applies to the line directly below it.
const (
	TagNondet          = "nondet"
	TagAlloc           = "alloc"
	TagErrok           = "errok"
	TagHotpath         = "hotpath"
	TagCowshared       = "cowshared"
	TagCowok           = "cowok"
	TagIntercepted     = "intercepted"
	TagUninterceptible = "uninterceptible"
)

const directivePrefix = "//failtrans:"

// A Directive is one parsed //failtrans: comment.
type Directive struct {
	Pos    token.Pos
	Tag    string
	Reason string
}

// parseDirective extracts a failtrans directive from one comment, if
// present.
func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	tag, reason, _ := strings.Cut(rest, " ")
	return Directive{Pos: c.Pos(), Tag: strings.TrimSpace(tag), Reason: strings.TrimSpace(reason)}, true
}

// Directives returns every failtrans directive in a comment group, in
// source order. Annotation-driven passes (cowcheck's field annotations,
// interceptcheck's boundary marks) read them from Doc/Comment groups.
func Directives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// FindDirective returns the first directive with the given tag in a
// comment group.
func FindDirective(cg *ast.CommentGroup, tag string) (Directive, bool) {
	for _, d := range Directives(cg) {
		if d.Tag == tag {
			return d, true
		}
	}
	return Directive{}, false
}

// HotpathAnnotated reports whether a function's doc comment carries the
// //failtrans:hotpath root annotation.
func HotpathAnnotated(doc *ast.CommentGroup) bool {
	_, ok := FindDirective(doc, TagHotpath)
	return ok
}

// InterceptedAnnotated reports whether a function's doc comment carries
// the //failtrans:intercepted boundary annotation.
func InterceptedAnnotated(doc *ast.CommentGroup) bool {
	_, ok := FindDirective(doc, TagIntercepted)
	return ok
}

// directiveIndex records, per file and line, the suppression tags in
// force.
type directiveIndex struct {
	fset *token.FileSet
	// byLine maps filename -> line -> the directives in force there, as
	// indexes into all.
	byLine map[string]map[int][]int
	// all collects every directive for validation; used marks the ones a
	// suppression query answered yes for.
	all  []Directive
	used []bool
}

func newDirectiveIndex(fset *token.FileSet) *directiveIndex {
	return &directiveIndex{fset: fset, byLine: make(map[string]map[int][]int)}
}

// addFile indexes every failtrans directive of one parsed file. A trailing
// directive (code precedes it on the line) suppresses its own line only; a
// standalone comment line suppresses the line below it.
func (ix *directiveIndex) addFile(f *ast.File) {
	// occupied records, per line, the leftmost column holding a
	// non-comment token, to tell trailing directives from standalone ones.
	occupied := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		pos := ix.fset.Position(n.Pos())
		if c, ok := occupied[pos.Line]; !ok || pos.Column < c {
			occupied[pos.Line] = pos.Column
		}
		return true
	})
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			i := len(ix.all)
			ix.all = append(ix.all, d)
			ix.used = append(ix.used, false)
			pos := ix.fset.Position(d.Pos)
			lines := ix.byLine[pos.Filename]
			if lines == nil {
				lines = make(map[int][]int)
				ix.byLine[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], i)
			if col, ok := occupied[pos.Line]; !ok || pos.Column < col {
				lines[pos.Line+1] = append(lines[pos.Line+1], i)
			}
		}
	}
}

// suppressed reports whether tag is in force at pos, and marks the
// directives that put it there used.
func (ix *directiveIndex) suppressed(pos token.Pos, tag string) bool {
	in := ix.forcing(pos, tag)
	for _, i := range in {
		ix.used[i] = true
	}
	return len(in) > 0
}

// forcing returns the indexes of the directives that put tag in force at
// pos.
func (ix *directiveIndex) forcing(pos token.Pos, tag string) []int {
	if tag == "" || !pos.IsValid() {
		return nil
	}
	p := ix.fset.Position(pos)
	var in []int
	for _, i := range ix.byLine[p.Filename][p.Line] {
		if ix.all[i].Tag == tag {
			in = append(in, i)
		}
	}
	return in
}

// reportUnused reports every suppression whose analyzer ran (tags maps a
// suppression tag to its analyzer's name) and that was never in force where
// the analyzer reported a finding or made a cut that mattered
// (Finish.Cut).
func (ix *directiveIndex) reportUnused(tags map[string]string, report func(Diagnostic)) {
	for i, d := range ix.all {
		if a, ok := tags[d.Tag]; ok && !ix.used[i] {
			report(Diagnostic{Pos: d.Pos, Analyzer: "directive",
				Message: "suppression //failtrans:" + d.Tag + " silences no " + a + " finding here: delete it"})
		}
	}
}

// validate reports malformed directives: unknown tags (typos would
// otherwise silently suppress nothing) and suppressions without a reason.
func (ix *directiveIndex) validate(report func(Diagnostic)) {
	for _, d := range ix.all {
		switch d.Tag {
		case TagNondet, TagAlloc, TagErrok, TagCowok, TagUninterceptible:
			if d.Reason == "" {
				report(Diagnostic{Pos: d.Pos, Analyzer: "directive",
					Message: "suppression //failtrans:" + d.Tag + " requires a reason"})
			}
		case TagCowshared:
			// An annotation carrying a payload: the privatizer list is
			// mandatory ("none" for fields whose every store needs a
			// written cowok justification).
			if d.Reason == "" {
				report(Diagnostic{Pos: d.Pos, Analyzer: "directive",
					Message: "//failtrans:cowshared requires a privatizer list (or \"none\")"})
			}
		case TagHotpath, TagIntercepted:
			// Annotations, not suppressions; no reason needed.
		default:
			report(Diagnostic{Pos: d.Pos, Analyzer: "directive",
				Message: "unknown failtrans directive tag \"" + d.Tag + "\""})
		}
	}
}
