package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Config tells the driver what to load and how to map import paths to
// directories.
type Config struct {
	// Dir is the root directory: a module root (the directory holding
	// go.mod) when ModulePath is set, or a GOPATH-src-style root where
	// import path "a/b" lives in Dir/a/b (the analysistest fixture
	// layout) when ModulePath is empty.
	Dir string
	// ModulePath is the module's import-path prefix ("failtrans").
	ModulePath string
	// Patterns selects packages: a directory, relative to Dir ("./p") or
	// absolute; a directory and every package below it ("./p/...",
	// "./..."); or an import path.
	Patterns []string
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader loads and type-checks packages from source. Local packages (as
// defined by Config) are resolved under Dir; everything else falls back to
// the standard library's source importer, so the whole run works with no
// compiled export data and no network. Each stdlib package parses only once
// per run.
type loader struct {
	cfg  Config
	fset *token.FileSet
	std  types.Importer

	pkgs     map[string]*Package // type-checked local packages
	visiting map[string]bool     // on the current walk's stack
	order    []*Package          // dependencies first
}

func newLoader(cfg Config) *loader {
	fset := token.NewFileSet()
	return &loader{
		cfg:      cfg,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		visiting: make(map[string]bool),
	}
}

// dirFor maps an import path to a local directory, or ok=false when the
// path is not local (standard library).
func (l *loader) dirFor(path string) (string, bool) {
	if l.cfg.ModulePath != "" {
		if path == l.cfg.ModulePath {
			return l.cfg.Dir, true
		}
		if rel, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/"); ok {
			return filepath.Join(l.cfg.Dir, filepath.FromSlash(rel)), true
		}
		return "", false
	}
	// GOPATH-style fixture root: local iff the directory exists.
	dir := filepath.Join(l.cfg.Dir, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, true
	}
	return "", false
}

// Import implements types.Importer for the type checker's import clauses.
// The walk type-checks a package's local dependencies before the package
// itself, so a local import is always complete by the time it is asked for.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		pkg := l.pkgs[path]
		if pkg == nil {
			return nil, fmt.Errorf("internal: local package %q imported before it was type-checked", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// sourceFiles lists the package's non-test Go files in sorted order.
func sourceFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// parsePkg parses one package directory and returns its files and its
// local imports, sorted and deduplicated.
func (l *loader) parsePkg(dir string) (files []*ast.File, deps []string, err error) {
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no Go source files in %s", dir)
	}
	depSet := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p == "unsafe" {
				continue
			}
			if _, ok := l.dirFor(p); ok {
				depSet[p] = true
			}
		}
	}
	for p := range depSet {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	return files, deps, nil
}

// load walks the local import graph depth-first from path: it parses the
// package, loads its local dependencies in sorted order, then type-checks
// it and appends it to l.order. A dependency still on the walk's stack is
// an import cycle.
func (l *loader) load(path string) error {
	if l.pkgs[path] != nil {
		return nil
	}
	if l.visiting[path] {
		return fmt.Errorf("import cycle through %q", path)
	}
	l.visiting[path] = true
	dir, ok := l.dirFor(path)
	if !ok {
		return fmt.Errorf("package %q is outside the analysis root", path)
	}
	files, deps, err := l.parsePkg(dir)
	if err != nil {
		return err
	}
	for _, d := range deps {
		if err := l.load(d); err != nil {
			return err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.visiting[path] = false
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return nil
}

// importPath maps a directory under Dir to its import path, or ok=false
// for a GOPATH-style root itself, which is not a package.
func (l *loader) importPath(dir string) (string, bool, error) {
	rel, err := filepath.Rel(l.cfg.Dir, dir)
	if err != nil {
		return "", false, err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case rel == ".." || strings.HasPrefix(rel, "../"):
		return "", false, fmt.Errorf("directory %s is outside the analysis root", dir)
	case rel == "." && l.cfg.ModulePath != "":
		return l.cfg.ModulePath, true, nil
	case rel == ".":
		return "", false, nil
	case l.cfg.ModulePath != "":
		return l.cfg.ModulePath + "/" + rel, true, nil
	}
	return rel, true, nil
}

// expand resolves the Config patterns into sorted import paths. A relative
// or absolute pattern names a directory under Dir, and with a "/..."
// suffix every package at or below it; anything else is an import path.
func (l *loader) expand() ([]string, error) {
	seen := make(map[string]bool)
	add := func(dir string) error {
		p, ok, err := l.importPath(dir)
		if ok {
			seen[p] = true
		}
		return err
	}
	for _, pat := range l.cfg.Patterns {
		if !build.IsLocalImport(pat) && !filepath.IsAbs(pat) {
			seen[pat] = true
			continue
		}
		base, tree := strings.CutSuffix(filepath.ToSlash(pat), "/...")
		root := filepath.FromSlash(base)
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.cfg.Dir, root)
		}
		if !tree {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := sourceFiles(p)
			if err != nil || len(names) == 0 {
				return nil
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

// loadAll loads every package the patterns select, plus their local
// transitive dependencies, and returns them in deterministic topological
// order, dependencies first.
func (l *loader) loadAll() ([]*Package, error) {
	roots, err := l.expand()
	if err != nil {
		return nil, err
	}
	for _, r := range roots {
		if err := l.load(r); err != nil {
			return nil, err
		}
	}
	return l.order, nil
}
