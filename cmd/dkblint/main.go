// Command dkblint runs the D/KB testbed's domain analyzer suite over Go
// packages:
//
//	directives  //dkblint: comments are known, well-formed and justified
//	lockorder   the global lock-acquisition order is acyclic; no lock is
//	            held across a blocking call; every lock is released on
//	            every path (interprocedural)
//	pinleak     page pins and snapshot pins are released on all paths
//	            (interprocedural)
//
// Each analyzer is kept because it flags a mutation of the module that
// no test fails on (DESIGN.md §8 lists them).
//
// Usage:
//
//	dkblint [-json] [-stats] [packages]
//
// Packages default to ./... relative to the current directory. -stats
// prints call-graph and lock-graph sizes to stderr after the run; -h
// lists the analyzers and the //dkblint: directive registry. Exit
// status is 0 for a clean run, 1 if any analyzer reported a finding,
// and 2 on a load or usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"

	"dkbms/internal/lint/directives"
	"dkbms/internal/lint/lintkit"
	"dkbms/internal/lint/lockorder"
	"dkbms/internal/lint/pinleak"
)

// Analyzers is the dkblint suite, in report order.
var Analyzers = []*lintkit.Analyzer{
	directives.Analyzer,
	lockorder.Analyzer,
	pinleak.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dkblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	stats := fs.Bool("stats", false, "print call-graph and lock-graph statistics to stderr")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "usage: dkblint [-json] [-stats] [packages]\n\nAnalyzers:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(w, "\nDirectives (//dkblint:<name> <justification>):\n")
		for _, d := range lintkit.Directives {
			fmt.Fprintf(w, "  %-12s %-12s %s\n", d.Name, d.Analyzer, d.Doc)
		}
		fmt.Fprintf(w, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := lintkit.Load(fset, ".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cache := lintkit.NewCache()
	diags, err := lintkit.RunWithCache(fset, pkgs, Analyzers, cache)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *jsonOut {
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *stats {
		printStats(stderr, cache, pkgs)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printStats reports the sizes of the module-wide structures the
// interprocedural analyzers built, so a reviewer can see how much of
// the program the graph covers (and how much escapes through dynamic
// call sites).
func printStats(w io.Writer, cache *lintkit.Cache, pkgs []*lintkit.Package) {
	targets := 0
	for _, p := range pkgs {
		if p.Target {
			targets++
		}
	}
	fmt.Fprintf(w, "dkblint stats:\n  packages analyzed: %d\n", targets)
	if cg := cache.BuiltCallGraph(); cg != nil {
		fmt.Fprintf(w, "  call graph: %d functions, %d edges, %d dynamic sites\n",
			cg.NumFuncs(), cg.NumEdges(), cg.DynamicSites)
	}
	if g, ok := cache.Load(lockorder.GraphKey).(*lockorder.Graph); ok {
		fmt.Fprintf(w, "  lock graph: %d lock classes, %d order edges, %d blocking sites\n",
			len(g.Locks), g.OrderEdges, g.BlockingSites)
		for _, l := range g.Locks {
			fmt.Fprintf(w, "    lock %s\n", l)
		}
	}
}
