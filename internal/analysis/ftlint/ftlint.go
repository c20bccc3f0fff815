// Package ftlint assembles the failtrans invariant checkers — detlint,
// hotpathcheck, durability, cowcheck, interceptcheck — with this
// repository's package configuration, for cmd/ftlint and for the
// repo-wide regression test that keeps the tree lint-clean.
package ftlint

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"strings"

	"failtrans/internal/analysis"
	"failtrans/internal/analysis/cowcheck"
	"failtrans/internal/analysis/detlint"
	"failtrans/internal/analysis/durability"
	"failtrans/internal/analysis/hotpath"
	"failtrans/internal/analysis/interceptcheck"
)

// DeterministicCore lists the packages whose execution must be a pure
// function of their seeds: the simulator, the recovery layers above it,
// the campaign machinery and its observability — every byte of their
// output is diffed across runs (serial/parallel equivalence, trace
// byte-identity), so detlint bans nondeterminism sources here.
var DeterministicCore = []string{
	"failtrans/internal/sim",
	"failtrans/internal/dc",
	"failtrans/internal/vista",
	"failtrans/internal/event",
	"failtrans/internal/statemachine",
	"failtrans/internal/recovery",
	"failtrans/internal/campaign",
	"failtrans/internal/obs",
	"failtrans/internal/obs/ledger",
	"failtrans/internal/stablestore",
	"failtrans/internal/faults",
}

// DurabilityStrict lists the packages whose every discarded error the
// durability pass reports: the stable-storage layer and the commit APIs
// above it, where a dropped error is the torn-append bug class.
var DurabilityStrict = []string{
	"failtrans/internal/stablestore",
	"failtrans/internal/dc",
	"failtrans/internal/vista",
}

// RecoverableCore lists the packages whose externally-visible effects
// must all flow through the intercepted event alphabet: the paper's
// recovery protocol can only replay what the DC layer logged, so an
// effect that escapes interception here is exactly the "unintercepted
// environment interaction" failure class of §4. interceptcheck treats
// every function in these packages as a workload root. A new package
// under internal/apps is picked up automatically via the prefix match
// (TestPlantedEffectIsCaught plants one).
var RecoverableCore = []string{
	"failtrans/internal/apps",
	"failtrans/internal/kernel",
	"failtrans/internal/protocol",
}

// InterceptionBoundary lists the packages that ARE the intercepted event
// alphabet — the DC hooks, the simulated kernel's syscall surface, the
// simulator's send/recv/clock, stable storage, and the observability
// sinks fed from them. Reachability stops here: effects inside a
// boundary package are by definition intercepted.
var InterceptionBoundary = []string{
	"failtrans/internal/dc",
	"failtrans/internal/sim",
	"failtrans/internal/stablestore",
	"failtrans/internal/obs",
	"failtrans/internal/event",
}

// Analyzers returns the ftlint suite. extraDetPkgs extends detlint's
// deterministic core (ftlint -detpkg; TestExtraDetPkgExtendsCore).
func Analyzers(extraDetPkgs ...string) []*analysis.Analyzer {
	det := append(append([]string(nil), DeterministicCore...), extraDetPkgs...)
	return []*analysis.Analyzer{
		detlint.New(det...),
		hotpath.New(),
		durability.New(DurabilityStrict...),
		cowcheck.New(),
		interceptcheck.New(interceptcheck.Config{
			Core:        RecoverableCore,
			Boundary:    InterceptionBoundary,
			StableStore: []string{"failtrans/internal/stablestore"},
		}),
	}
}

// Run lints the module that contains dir with the full suite and returns
// the findings. No patterns means the whole module; a relative pattern
// ("./p", "./p/...") is resolved against dir, as the go tool resolves it
// against the working directory.
func Run(dir string, patterns []string, extraDetPkgs ...string) (*analysis.Result, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pats := []string{"./..."} // relative to root: the whole module
	if len(patterns) > 0 {
		pats = make([]string, len(patterns))
		for i, pat := range patterns {
			if build.IsLocalImport(pat) {
				pat = filepath.Join(abs, pat)
			}
			pats[i] = pat
		}
	}
	return analysis.Run(analysis.Config{
		Dir:        root,
		ModulePath: modpath,
		Patterns:   pats,
	}, Analyzers(extraDetPkgs...))
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
