// Command ftlint runs the failtrans invariant checkers over the module:
//
//	go run ./cmd/ftlint ./...
//
// Five passes (see internal/analysis/<pass> for the full rules):
//
//	detlint        no wall clock (reads or timers), global math/rand,
//	               process identity, or map-ordered output in the
//	               deterministic core
//	hotpathcheck   no allocation sites (including bound method values)
//	               reachable from //failtrans:hotpath commit entry points
//	durability     no discarded errors from Sync/Truncate/Seek/Rename,
//	               write-path Close, or the stable-storage APIs
//	cowcheck       no writes into //failtrans:cowshared COW backing
//	               without a dominating privatization call
//	interceptcheck no externally-visible effects in the recoverable core
//	               that bypass the dc/kernel/sim interception surface
//
// ftlint exits 0 when the tree is clean, 1 when it has findings, 2 on
// usage or load errors. Suppressions (//failtrans:nondet, //failtrans:alloc,
// //failtrans:errok, //failtrans:cowok, //failtrans:uninterceptible)
// require a written reason; a reasonless or misspelled directive is
// itself a finding.
//
// -json writes the findings to stdout as a JSON document (CI archives it
// as an artifact); the human-readable lines then go to stderr. Relative
// patterns resolve against the working directory, as with the go tool:
// ./internal/sim, ./internal/..., or ./... from a subdirectory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"failtrans/internal/analysis"
	"failtrans/internal/analysis/ftlint"
)

func main() {
	var (
		detpkg  string
		jsonOut bool
	)
	flag.StringVar(&detpkg, "detpkg", "",
		"comma-separated extra import paths to add to detlint's deterministic core")
	flag.BoolVar(&jsonOut, "json", false,
		"write findings to stdout as JSON (human-readable lines move to stderr)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ftlint [-detpkg pkgs] [-json] [patterns]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		for _, a := range ftlint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	var extra []string
	if detpkg != "" {
		extra = strings.Split(detpkg, ",")
	}
	res, err := ftlint.Run(".", flag.Args(), extra...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}
	human := os.Stdout
	if jsonOut {
		human = os.Stderr
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			os.Exit(2)
		}
	}
	for _, d := range res.Diags {
		fmt.Fprintln(human, analysis.FormatDiag(res.Fset, d))
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "ftlint: %d finding(s)\n", len(res.Diags))
		os.Exit(1)
	}
}
