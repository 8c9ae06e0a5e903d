package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dkbms/internal/bench"
)

// The gate fails a latency cell that is more than gateTolerance times
// its baseline AND more than gateFloor slower in absolute terms. The
// double condition keeps the gate quiet on microsecond-scale cells,
// where scheduling jitter dominates, while still catching a real
// regression on anything that matters.
//
// Only latency-named columns are gated — "(ms)", "(us)", or names
// ending in _ms/_us/_ns. Counts, ratios and throughput move with
// hardware in both directions and are not judged. A changed table shape
// (columns, row count, row labels) fails too: the baseline then
// describes a different experiment and must be regenerated
// deliberately. Gating all experiments also fails on an orphan: a
// baseline file no registered experiment owns, which would otherwise
// never be gated.
const (
	gateTolerance = 3.0
	gateFloor     = time.Millisecond
)

// baselinePath is where experiment id's BENCH file lives under dir.
// Experiment IDs use dashes; the file names use underscores
// (BENCH_server_scaling.json).
func baselinePath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+strings.ReplaceAll(id, "-", "_")+".json")
}

// gate compares rep against its baseline under dir, printing one line
// per violation (or one "ok" line), and reports whether it passed.
func gate(w io.Writer, dir string, rep *bench.Report) bool {
	base, err := readBaseline(baselinePath(dir, rep.ID))
	if err != nil {
		fmt.Fprintf(w, "%-18s MISSING %v\n", rep.ID, err)
		return false
	}
	problems := compare(base, rep)
	for _, p := range problems {
		fmt.Fprintf(w, "%-18s REGRESSION %s\n", rep.ID, p)
	}
	if len(problems) == 0 {
		fmt.Fprintf(w, "%-18s ok (%d latency cells within %.1fx)\n", rep.ID, gatedCells(rep), gateTolerance)
	}
	return len(problems) == 0
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
// message per violation.
func compare(base *bench.JSONReport, cur *bench.Report) []string {
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
			if curNs > baseNs*gateTolerance && curNs-baseNs > float64(gateFloor) {
				out = append(out, fmt.Sprintf("row %d (%s=%s) %s: %s → %s (%.1fx, limit %.1fx)",
					i, cur.Cols[0], curRow[0], col,
					time.Duration(baseNs).Round(time.Microsecond),
					time.Duration(curNs).Round(time.Microsecond),
					curNs/baseNs, gateTolerance))
			}
		}
	}
	return out
}
