// Command benchgate is the CI performance-regression gate: it re-runs
// the quick benchmark suite in-process and compares every latency cell
// against a committed baseline (scripts/bench_baseline/BENCH_<exp>.json),
// failing when a cell is more than -tolerance times slower AND the
// absolute slowdown exceeds -floor. The double condition keeps the gate
// quiet on microsecond-scale cells, where scheduling jitter dominates,
// while still catching a real 2× regression on anything that matters.
//
// Only latency-named columns are gated — "(ms)", "(us)", or names
// ending in _ms/_us/_ns. Counts, ratios and throughput move with
// hardware in both directions and are not judged.
//
// Usage:
//
//	benchgate                      # gate against scripts/bench_baseline
//	benchgate -update              # re-measure and rewrite the baselines
//	benchgate -exp fig7,fig8       # gate a subset
//	benchgate -tolerance 3 -floor 5ms
//
// Baselines are quick-scale runs committed to the repo; refresh them
// with -update after an intentional perf change (or on new hardware).
// Gating all experiments also fails on an orphan: a baseline file no
// registered experiment owns, which would otherwise never be gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dkbms/internal/bench"
)

func main() {
	var (
		baselineDir = flag.String("baseline", "scripts/bench_baseline", "directory of committed BENCH_<exp>.json baselines")
		update      = flag.Bool("update", false, "re-measure and rewrite the baselines instead of gating")
		tolerance   = flag.Float64("tolerance", 2.0, "fail when a latency cell exceeds baseline × tolerance")
		floor       = flag.Duration("floor", time.Millisecond, "ignore slowdowns smaller than this (absolute)")
		expFlag     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		reps        = flag.Int("reps", 3, "repetitions per measured point (minimum reported)")
	)
	flag.Parse()

	var runners []bench.Runner
	if *expFlag == "all" {
		runners = bench.Runners()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			r := bench.Find(id)
			if r == nil {
				fmt.Fprintf(os.Stderr, "benchgate: unknown experiment %q\n", id)
				os.Exit(2)
			}
			runners = append(runners, *r)
		}
	}

	cfg := bench.QuickConfig()
	cfg.Reps = *reps

	failed := false
	if *expFlag == "all" && !*update {
		orphans, err := orphanBaselines(*baselineDir, runners)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		for _, name := range orphans {
			fmt.Printf("%-18s ORPHAN no registered experiment gates this baseline (delete it)\n", name)
			failed = true
		}
	}
	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		path := baselinePath(*baselineDir, r.ID)

		if *update {
			out, err := rep.JSON(cfg, time.Since(start))
			if err == nil {
				err = os.WriteFile(path, out, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", r.ID, err)
				os.Exit(1)
			}
			fmt.Printf("%-18s baseline written (%s)\n", r.ID, path)
			continue
		}

		base, err := readBaseline(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v (refresh with -update)\n", r.ID, err)
			failed = true
			continue
		}
		problems := compare(base, rep, *tolerance, *floor)
		if len(problems) == 0 {
			fmt.Printf("%-18s ok (%d latency cells within %.1fx)\n", r.ID, gatedCells(rep), *tolerance)
			continue
		}
		failed = true
		for _, p := range problems {
			fmt.Printf("%-18s REGRESSION %s\n", r.ID, p)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAILED (intentional change? refresh with: go run ./cmd/benchgate -update)")
		os.Exit(1)
	}
}

// baselinePath is where experiment id's baseline lives under dir.
func baselinePath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+strings.ReplaceAll(id, "-", "_")+".json")
}

// orphanBaselines lists, by file name, the baselines under dir that no
// runner owns.
func orphanBaselines(dir string, runners []bench.Runner) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	owned := make(map[string]bool, len(runners))
	for _, r := range runners {
		owned[baselinePath(dir, r.ID)] = true
	}
	var orphans []string
	for _, p := range paths {
		if !owned[p] {
			orphans = append(orphans, filepath.Base(p))
		}
	}
	return orphans, nil
}

func readBaseline(path string) (*bench.JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("no baseline: %w", err)
	}
	var jr bench.JSONReport
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("unreadable baseline: %w", err)
	}
	return &jr, nil
}

// unitNs maps a latency column name to its unit in nanoseconds, 0 for
// columns that are not gated.
func unitNs(col string) float64 {
	switch {
	case strings.Contains(col, "(ms)") || strings.HasSuffix(col, "_ms"):
		return 1e6
	case strings.Contains(col, "(us)") || strings.HasSuffix(col, "_us"):
		return 1e3
	case strings.Contains(col, "(ns)") || strings.HasSuffix(col, "_ns"):
		return 1
	}
	return 0
}

// gatedCells counts the latency cells a report contributes to the gate.
func gatedCells(rep *bench.Report) int {
	n := 0
	for _, col := range rep.Cols {
		if unitNs(col) > 0 {
			n += len(rep.Rows)
		}
	}
	return n
}

// compare judges the current report against its baseline, returning one
// message per violation. A changed table shape (columns, row count, row
// labels) is a violation too: it means the baseline describes a
// different experiment and must be refreshed deliberately.
func compare(base *bench.JSONReport, cur *bench.Report, tolerance float64, floor time.Duration) []string {
	var out []string
	if strings.Join(base.Cols, "|") != strings.Join(cur.Cols, "|") {
		return []string{fmt.Sprintf("column set changed (baseline %v, now %v)", base.Cols, cur.Cols)}
	}
	if len(base.Rows) != len(cur.Rows) {
		return []string{fmt.Sprintf("row count changed (baseline %d, now %d)", len(base.Rows), len(cur.Rows))}
	}
	for i, curRow := range cur.Rows {
		baseRow := base.Rows[i]
		if len(baseRow) > 0 && len(curRow) > 0 && baseRow[0] != curRow[0] {
			out = append(out, fmt.Sprintf("row %d relabeled (baseline %q, now %q)", i, baseRow[0], curRow[0]))
			continue
		}
		for j, col := range cur.Cols {
			mult := unitNs(col)
			if mult == 0 || j >= len(baseRow) || j >= len(curRow) {
				continue
			}
			bv, berr := strconv.ParseFloat(baseRow[j], 64)
			cv, cerr := strconv.ParseFloat(curRow[j], 64)
			if berr != nil || cerr != nil {
				continue // non-numeric cell ("n/a"): nothing to judge
			}
			baseNs, curNs := bv*mult, cv*mult
			if curNs > baseNs*tolerance && curNs-baseNs > float64(floor.Nanoseconds()) {
				out = append(out, fmt.Sprintf("%s %s: %s → %s (%.1fx, limit %.1fx)",
					curRow[0], col,
					time.Duration(baseNs).Round(time.Microsecond),
					time.Duration(curNs).Round(time.Microsecond),
					curNs/baseNs, tolerance))
			}
		}
	}
	return out
}
