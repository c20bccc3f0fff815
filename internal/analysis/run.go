package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Result is the outcome of one driver run.
type Result struct {
	// Diags holds every surviving (unsuppressed) finding, sorted by
	// position.
	Diags []Diagnostic
	// Pkgs are the loaded local packages in topological order.
	Pkgs []*Package
	// Fset positions every Diagnostic and every Pkg file.
	Fset *token.FileSet
}

type driver struct {
	fset  *token.FileSet
	index *directiveIndex
	facts map[factKey]any
	diags []Diagnostic
}

func (d *driver) report(diag Diagnostic)                  { d.diags = append(d.diags, diag) }
func (d *driver) suppressed(pos token.Pos, t string) bool { return d.index.suppressed(pos, t) }

// Run loads the packages cfg selects and applies every analyzer: each
// per-package Run in dependency order, then each Finish hook over the
// accumulated fact table. Findings suppressed by their analyzer's tag are
// filtered out; malformed directives become "directive" findings of their
// own.
func Run(cfg Config, analyzers []*Analyzer) (*Result, error) {
	l := newLoader(cfg)
	pkgs, err := l.loadAll()
	if err != nil {
		return nil, err
	}
	d := &driver{
		fset:  l.fset,
		index: newDirectiveIndex(l.fset),
		facts: make(map[factKey]any),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			d.index.addFile(f)
		}
	}
	d.index.validate(d.report)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if err := a.Run(&Pass{Analyzer: a, Pkg: pkg, driver: d}); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(&Finish{Analyzer: a, driver: d})
		}
	}
	tags := make(map[string]string, len(analyzers))
	for _, a := range analyzers {
		tags[a.Name] = a.SuppressTag
	}
	var kept []Diagnostic
	for _, diag := range d.diags {
		if d.suppressed(diag.Pos, tags[diag.Analyzer]) {
			continue
		}
		kept = append(kept, diag)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := l.fset.Position(kept[i].Pos), l.fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Message < kept[j].Message
	})
	return &Result{Diags: kept, Pkgs: pkgs, Fset: l.fset}, nil
}

// FormatDiag renders one finding the way cmd/ftlint prints it.
func FormatDiag(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// Finding is the machine-readable shape of one diagnostic, used by
// ftlint -json so CI can archive findings as an artifact.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Findings converts the result's diagnostics to their JSON shape,
// preserving the position-sorted order.
func (r *Result) Findings() []Finding {
	out := make([]Finding, len(r.Diags))
	for i, d := range r.Diags {
		p := r.Fset.Position(d.Pos)
		out[i] = Finding{
			File:     p.Filename,
			Line:     p.Line,
			Col:      p.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	return out
}

// WriteJSON emits the findings as one indented JSON document:
// {"count": N, "findings": [...]}. The findings array is always present
// (empty, not null, on a clean run) so downstream jq stays simple.
func (r *Result) WriteJSON(w io.Writer) error {
	doc := struct {
		Count    int       `json:"count"`
		Findings []Finding `json:"findings"`
	}{Count: len(r.Diags), Findings: r.Findings()}
	if doc.Findings == nil {
		doc.Findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
