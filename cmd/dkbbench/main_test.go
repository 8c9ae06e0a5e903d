package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dkbms/internal/bench"
)

// committed is the directory of the committed quick-scale baselines.
const committed = "../../scripts/bench_baseline"

func TestUnitNs(t *testing.T) {
	cases := map[string]float64{
		"t_e(ms)":        1e6,
		"sequential(ms)": 1e6,
		"elapsed_ms":     1e6,
		"t_extract(us)":  1e3,
		"p99_us":         1e3,
		"cycle_us":       1e3,
		"stall_ns":       1,
		"speedup":        0,
		"requests":       0,
		"D_tot":          0,
		"ratio":          0,
	}
	for col, want := range cases {
		if got := unitNs(col); got != want {
			t.Errorf("unitNs(%q) = %v, want %v", col, got, want)
		}
	}
}

func report(cols []string, rows [][]string) *bench.Report {
	return &bench.Report{ID: "x", Cols: cols, Rows: rows}
}

func baseline(cols []string, rows [][]string) *bench.JSONReport {
	return &bench.JSONReport{ID: "x", Cols: cols, Rows: rows}
}

func TestCompareClean(t *testing.T) {
	cols := []string{"level", "naive(ms)", "ratio"}
	base := baseline(cols, [][]string{{"1", "10.00", "2.0"}, {"2", "20.00", "2.1"}})
	cur := report(cols, [][]string{{"1", "29.00", "9.9"}, {"2", "19.00", "0.1"}})
	if got := compare(base, cur); len(got) != 0 {
		t.Errorf("clean compare flagged: %v", got)
	}
}

func TestCompareRegression(t *testing.T) {
	cols := []string{"level", "naive(ms)"}
	base := baseline(cols, [][]string{{"1", "10.00"}})
	cur := report(cols, [][]string{{"1", "35.00"}})
	got := compare(base, cur)
	if len(got) != 1 || !strings.Contains(got[0], "naive(ms)") || !strings.Contains(got[0], "level=1") {
		t.Errorf("regression not flagged: %v", got)
	}
}

func TestCompareFloorAbsorbsSmallCells(t *testing.T) {
	// 5µs → 50µs is 10x, but below the 1ms floor: jitter, not regression.
	cols := []string{"R_s", "t_extract(us)"}
	base := baseline(cols, [][]string{{"8", "5"}})
	cur := report(cols, [][]string{{"8", "50"}})
	if got := compare(base, cur); len(got) != 0 {
		t.Errorf("sub-floor slowdown flagged: %v", got)
	}
	// Same ratio above the floor must fail.
	base = baseline(cols, [][]string{{"8", "5000"}})
	cur = report(cols, [][]string{{"8", "50000"}})
	if got := compare(base, cur); len(got) != 1 {
		t.Errorf("above-floor slowdown not flagged: %v", got)
	}
}

func TestCompareShapeChanges(t *testing.T) {
	base := baseline([]string{"a", "x(ms)"}, [][]string{{"1", "10"}})
	if got := compare(base, report([]string{"a", "y(ms)"}, [][]string{{"1", "10"}})); len(got) != 1 || !strings.Contains(got[0], "column set changed") {
		t.Errorf("column change not flagged: %v", got)
	}
	if got := compare(base, report([]string{"a", "x(ms)"}, nil)); len(got) != 1 || !strings.Contains(got[0], "row count changed") {
		t.Errorf("row-count change not flagged: %v", got)
	}
	if got := compare(base, report([]string{"a", "x(ms)"}, [][]string{{"2", "10"}})); len(got) != 1 || !strings.Contains(got[0], "relabeled") {
		t.Errorf("relabel not flagged: %v", got)
	}
}

func TestCompareSkipsNonNumeric(t *testing.T) {
	cols := []string{"q", "plain(ms)"}
	base := baseline(cols, [][]string{{"q1", "n/a"}})
	cur := report(cols, [][]string{{"q1", "99.0"}})
	if got := compare(base, cur); len(got) != 0 {
		t.Errorf("n/a cell judged: %v", got)
	}
}

// TestOrphanBaselines: a baseline file whose experiment is no longer
// registered is reported, so gating all of them cannot skip it silently.
func TestOrphanBaselines(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_fig7.json", "BENCH_ablation_tcop.json", "BENCH_ablation_gone.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runners := []bench.Runner{{ID: "fig7"}, {ID: "ablation-tcop"}, {ID: "fig8"}}
	got, err := orphanBaselines(dir, runners)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BENCH_ablation_gone.json"}; !reflect.DeepEqual(got, want) {
		t.Errorf("orphans %v, want %v", got, want)
	}
	// The committed baselines have no orphan.
	got, err = orphanBaselines(committed, bench.Runners())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("committed orphan baselines: %v", got)
	}
}

// TestGateFailsOnDoctoredBaseline: a copy of table8's committed baseline
// whose largest gated cell is cut to 1 of its unit makes -gate exit
// non-zero, naming the experiment, the row and the column. The cut puts
// the cell's threshold at the gate's floor, far below any run of it.
func TestGateFailsOnDoctoredBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	const exp = "table8"
	base, err := readBaseline(baselinePath(committed, exp))
	if err != nil {
		t.Fatal(err)
	}
	row, col, best := -1, -1, 0.0
	for i, r := range base.Rows {
		for j, c := range base.Cols {
			if v, err := strconv.ParseFloat(r[j], 64); err == nil && unitNs(c) > 0 && v*unitNs(c) > best {
				row, col, best = i, j, v*unitNs(c)
			}
		}
	}
	if best < 2*float64(gateFloor) {
		t.Fatalf("%s's largest gated cell is %.0fns: too small to show a cut to the floor", exp, best)
	}
	base.Rows[row][col] = "1"
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(baselinePath(dir, exp), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw strings.Builder
	if code := run([]string{"-exp", exp, "-reps", "1", "-gate", dir}, &out, &errw); code == 0 {
		t.Fatalf("gate passed a doctored baseline:\n%s%s", out.String(), errw.String())
	}
	named := false
	for _, line := range strings.Split(out.String(), "\n") {
		named = named || strings.HasPrefix(line, exp+" ") && strings.Contains(line, "REGRESSION") &&
			strings.Contains(line, base.Cols[0]+"="+base.Rows[row][0]) && strings.Contains(line, base.Cols[col])
	}
	if !named {
		t.Errorf("no REGRESSION line names %s, row %s=%s and column %s:\n%s",
			exp, base.Cols[0], base.Rows[row][0], base.Cols[col], out.String())
	}
	if !strings.Contains(errw.String(), "gate FAILED") {
		t.Errorf("stderr: %s", errw.String())
	}
}
