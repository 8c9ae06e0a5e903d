// Command dkblint runs the D/KB testbed's domain analyzer suite over Go
// packages:
//
//	atomicfield variables touched by sync/atomic are atomic everywhere
//	ctxflow     unbounded query-path loops observe ctx.Done/ctx.Err
//	directives  //dkblint: comments are known, well-formed and justified
//	gofanout    no unbounded `go` launches inside loops
//	lockorder   the global lock-acquisition order is acyclic; no lock is
//	            held across a blocking call; every lock is released on
//	            every path (interprocedural)
//	pinleak     page pins, snapshot pins, scheduler clients and task
//	            groups are released on all paths (interprocedural)
//
// Usage:
//
//	dkblint [-json] [-stats] [packages]
//	dkblint -directives
//
// Packages default to ./... relative to the current directory. -stats
// prints call-graph and lock-graph sizes to stderr after the run;
// -directives lists the //dkblint: directive registry and exits. Exit
// status is 0 for a clean run, 1 if any analyzer reported a finding,
// and 2 on a load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"

	"dkbms/internal/lint/atomicfield"
	"dkbms/internal/lint/ctxflow"
	"dkbms/internal/lint/directives"
	"dkbms/internal/lint/gofanout"
	"dkbms/internal/lint/lintkit"
	"dkbms/internal/lint/lockorder"
	"dkbms/internal/lint/pinleak"
)

// Analyzers is the dkblint suite, in report order.
var Analyzers = []*lintkit.Analyzer{
	atomicfield.Analyzer,
	ctxflow.Analyzer,
	directives.Analyzer,
	gofanout.Analyzer,
	lockorder.Analyzer,
	pinleak.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dkblint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	stats := fs.Bool("stats", false, "print call-graph and lock-graph statistics to stderr")
	listDirectives := fs.Bool("directives", false, "list the //dkblint: directive registry and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dkblint [-json] [-stats] [packages]\n       dkblint -directives\n\nAnalyzers:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listDirectives {
		printDirectives(os.Stdout)
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := lintkit.Load(fset, ".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cache := lintkit.NewCache()
	diags, err := lintkit.RunWithCache(fset, pkgs, Analyzers, cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *stats {
		printStats(cache, pkgs)
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
func printStats(cache *lintkit.Cache, pkgs []*lintkit.Package) {
	targets := 0
	for _, p := range pkgs {
		if p.Target {
			targets++
		}
	}
	fmt.Fprintf(os.Stderr, "dkblint stats:\n  packages analyzed: %d\n", targets)
	if cg := cache.BuiltCallGraph(); cg != nil {
		fmt.Fprintf(os.Stderr, "  call graph: %d functions, %d edges, %d dynamic sites\n",
			cg.NumFuncs(), cg.NumEdges(), cg.DynamicSites)
	}
	if g, ok := cache.Load(lockorder.GraphKey).(*lockorder.Graph); ok {
		fmt.Fprintf(os.Stderr, "  lock graph: %d lock classes, %d order edges, %d blocking sites\n",
			len(g.Locks), g.OrderEdges, g.BlockingSites)
		for _, l := range g.Locks {
			fmt.Fprintf(os.Stderr, "    lock %s\n", l)
		}
	}
}

func printDirectives(w *os.File) {
	fmt.Fprintf(w, "//dkblint: directive registry (grammar: //dkblint:<name> <justification>):\n")
	for _, d := range lintkit.Directives {
		fmt.Fprintf(w, "  %-36s %-11s %s\n", "//dkblint:"+d.Name+" <justification>", d.Analyzer, d.Doc)
	}
}
