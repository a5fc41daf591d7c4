// Command kernvet runs the repository's static-analysis suite: nine
// project-specific analyzers that mechanically enforce invariants
// earlier PRs established by convention —
//
//   - atomicexpvar: atomic counters never read plainly; expvar fields
//     mutated only through their owning type's helpers
//   - bitexact: //kernvet:bitexact code stays deterministic (no map
//     ranges, completion-order collection, clock/rand, float ==)
//   - compsum: compensated sweep sums
//   - ctxpoll: exported context-first (or ...Context) functions poll
//     or propagate ctx
//   - errdiscipline: errors matched with errors.Is/As and wrapped with
//     %w, never ==, type assertions, or string matching
//   - goleak: goroutines in exported APIs joined or context-bound
//   - lockdefer: serve's locking discipline
//   - narrowconv: the float32 precision boundary
//   - poolpair: workspace pooling acquire/release pairing
//
// Full-suite runs (no -checks) also report stale suppressions: a
// //kernvet:ignore directive that silences nothing is itself a finding,
// under the pseudo-check "staleignore".
//
// Usage:
//
//	kernvet [-json] [-sarif file] [-checks name,...] [-list] [packages]
//
// Packages default to ./... relative to the current module. -list
// prints the analyzers sorted by name. -sarif writes a SARIF 2.1.0 log
// to the given file ("-" for standard output) alongside the normal
// text or -json findings. Exit status is 0 when clean, 1 when any
// finding is reported, and 2 on usage or load errors — so CI can
// distinguish "found violations" from "could not analyze".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/checks"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kernvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		sarifOut  = fs.String("sarif", "", "also write a SARIF 2.1.0 log to `file` (\"-\" for stdout)")
		checkList = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		list      = fs.Bool("list", false, "list available analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: kernvet [-json] [-sarif file] [-checks name,...] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := checks.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", analysis.StaleCheck,
			"(engine) //kernvet:ignore directives that suppress nothing; reported on full-suite runs")
		return 0
	}
	// Stale-suppression detection needs every analyzer to have had its
	// chance at the tree; a partial -checks run cannot judge a directive
	// naming a check that never ran.
	opts := analysis.RunOptions{StaleIgnores: true}
	if *checkList != "" {
		sel, ok := checks.ByName(strings.Split(*checkList, ","))
		if !ok {
			fmt.Fprintf(stderr, "kernvet: unknown check in -checks=%s (try -list)\n", *checkList)
			return 2
		}
		analyzers = sel
		opts.StaleIgnores = false
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "kernvet: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintf(stderr, "kernvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "kernvet: %v\n", err)
		return 2
	}

	diags := analysis.RunWithOptions(pkgs, analyzers, opts)

	if *sarifOut != "" {
		w := stdout
		var f *os.File
		if *sarifOut != "-" {
			f, err = os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintf(stderr, "kernvet: %v\n", err)
				return 2
			}
			w = f
		}
		err = analysis.WriteSARIF(w, diags, analyzers, loader.Root)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "kernvet: writing SARIF: %v\n", err)
			return 2
		}
	}

	if *jsonOut {
		// Always an array (possibly empty) so consumers can parse
		// unconditionally.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "kernvet: %v\n", err)
			return 2
		}
	} else if *sarifOut != "-" {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "kernvet: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
