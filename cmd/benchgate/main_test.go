package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dkbms/internal/bench"
)

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
	cur := report(cols, [][]string{{"1", "11.00", "9.9"}, {"2", "19.00", "0.1"}})
	if got := compare(base, cur, 2.0, time.Millisecond); len(got) != 0 {
		t.Errorf("clean compare flagged: %v", got)
	}
}

func TestCompareRegression(t *testing.T) {
	cols := []string{"level", "naive(ms)"}
	base := baseline(cols, [][]string{{"1", "10.00"}})
	cur := report(cols, [][]string{{"1", "25.00"}})
	got := compare(base, cur, 2.0, time.Millisecond)
	if len(got) != 1 || !strings.Contains(got[0], "naive(ms)") {
		t.Errorf("regression not flagged: %v", got)
	}
}

func TestCompareFloorAbsorbsSmallCells(t *testing.T) {
	// 5µs → 50µs is 10x, but below the 1ms floor: jitter, not regression.
	cols := []string{"R_s", "t_extract(us)"}
	base := baseline(cols, [][]string{{"8", "5"}})
	cur := report(cols, [][]string{{"8", "50"}})
	if got := compare(base, cur, 2.0, time.Millisecond); len(got) != 0 {
		t.Errorf("sub-floor slowdown flagged: %v", got)
	}
	// Same ratio above the floor must fail.
	base = baseline(cols, [][]string{{"8", "5000"}})
	cur = report(cols, [][]string{{"8", "50000"}})
	if got := compare(base, cur, 2.0, time.Millisecond); len(got) != 1 {
		t.Errorf("above-floor slowdown not flagged: %v", got)
	}
}

func TestCompareShapeChanges(t *testing.T) {
	base := baseline([]string{"a", "x(ms)"}, [][]string{{"1", "10"}})
	if got := compare(base, report([]string{"a", "y(ms)"}, [][]string{{"1", "10"}}), 2, 0); len(got) != 1 || !strings.Contains(got[0], "column set changed") {
		t.Errorf("column change not flagged: %v", got)
	}
	if got := compare(base, report([]string{"a", "x(ms)"}, nil), 2, 0); len(got) != 1 || !strings.Contains(got[0], "row count changed") {
		t.Errorf("row-count change not flagged: %v", got)
	}
	if got := compare(base, report([]string{"a", "x(ms)"}, [][]string{{"2", "10"}}), 2, 0); len(got) != 1 || !strings.Contains(got[0], "relabeled") {
		t.Errorf("relabel not flagged: %v", got)
	}
}

func TestCompareSkipsNonNumeric(t *testing.T) {
	cols := []string{"q", "plain(ms)"}
	base := baseline(cols, [][]string{{"q1", "n/a"}})
	cur := report(cols, [][]string{{"q1", "99.0"}})
	if got := compare(base, cur, 2.0, 0); len(got) != 0 {
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
	got, err = orphanBaselines("../../scripts/bench_baseline", bench.Runners())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("committed orphan baselines: %v", got)
	}
}
