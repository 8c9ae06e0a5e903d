// Command dkbbench regenerates the paper's experimental tables and
// figures (§5.3) over the testbed's workload generators, printing each
// as the rows/series the paper reports. It also writes them as JSON and
// gates them against committed baselines.
//
// Usage:
//
//	dkbbench                 # run every experiment at full scale
//	dkbbench -exp fig13      # one experiment
//	dkbbench -exp fig7,fig8  # a subset
//	dkbbench -quick          # shrunken inputs (seconds, for smoke runs)
//	dkbbench -list           # list experiment IDs
//	dkbbench -reps 5         # repetitions per measured point
//	dkbbench -json DIR       # additionally write BENCH_<exp>.json per experiment
//	dkbbench -gate DIR       # quick scale, compared against DIR's BENCH_<exp>.json
//
// The committed baselines are quick-scale runs; regenerate them after an
// intentional performance change (or on new hardware) with
//
//	dkbbench -quick -json scripts/bench_baseline
//
// and gate against them with
//
//	dkbbench -gate scripts/bench_baseline
//
// The gate's rule is in gate.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dkbms/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the selected experiments and
// returns the exit status (0 ok, 1 a failed run or gate, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dkbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick   = fs.Bool("quick", false, "shrunken inputs for a fast smoke run")
		reps    = fs.Int("reps", 3, "repetitions per measured point (minimum reported)")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		jsonDir = fs.String("json", "", "directory to write machine-readable BENCH_<exp>.json results into (empty: don't)")
		gateDir = fs.String("gate", "", "directory of committed BENCH_<exp>.json baselines to gate against, at quick scale (empty: don't)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range bench.Runners() {
			fmt.Fprintf(stdout, "%-18s %s\n", r.ID, r.Title)
		}
		return 0
	}

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick || *gateDir != ""
	cfg.Reps = *reps

	var runners []bench.Runner
	if *exp == "all" {
		runners = bench.Runners()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			r := bench.Find(id)
			if r == nil {
				fmt.Fprintf(stderr, "dkbbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			runners = append(runners, *r)
		}
	}

	failed := false
	if *gateDir != "" && *exp == "all" {
		orphans, err := orphanBaselines(*gateDir, runners)
		if err != nil {
			fmt.Fprintf(stderr, "dkbbench: %v\n", err)
			return 2
		}
		for _, name := range orphans {
			fmt.Fprintf(stdout, "%-18s ORPHAN no registered experiment gates this baseline (delete it)\n", name)
			failed = true
		}
	}
	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "dkbbench: %s: %v\n", r.ID, err)
			return 1
		}
		elapsed := time.Since(start)
		if *gateDir == "" {
			fmt.Fprint(stdout, rep.Format())
			fmt.Fprintf(stdout, "(%s in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
		}
		if *gateDir != "" && !gate(stdout, *gateDir, rep) {
			failed = true
		}
		if *jsonDir != "" {
			path := baselinePath(*jsonDir, r.ID)
			out, err := rep.JSON(cfg, elapsed)
			if err == nil {
				err = os.WriteFile(path, out, 0o644)
			}
			if err != nil {
				fmt.Fprintf(stderr, "dkbbench: %s: %v\n", r.ID, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
	}
	if failed {
		fmt.Fprintf(stderr, "dkbbench: gate FAILED (intentional change? regenerate with: go run ./cmd/dkbbench -quick -json %s)\n", *gateDir)
		return 1
	}
	return 0
}
