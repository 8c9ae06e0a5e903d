package bench

import (
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every registered experiment at
// test scale and sanity-checks report structure.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow-ish even at quick scale")
	}
	cfg := QuickConfig()
	for _, r := range Runners() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			rep, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != r.ID {
				t.Fatalf("report ID %q from runner %q", rep.ID, r.ID)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Cols) {
					t.Fatalf("row width %d vs %d cols", len(row), len(rep.Cols))
				}
			}
			out := rep.Format()
			if !strings.Contains(out, strings.ToUpper(r.ID)) {
				t.Fatalf("format output missing ID:\n%s", out)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	rs := Runners()
	if len(rs) < 17 {
		t.Fatalf("only %d experiments registered", len(rs))
	}
	// Paper order: figures first, ascending.
	if rs[0].ID != "fig7" {
		t.Fatalf("first runner %s", rs[0].ID)
	}
	if Find("fig13") == nil || Find("nope") != nil {
		t.Fatal("Find broken")
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
	}
	for _, want := range []string{
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"table4", "table5", "table8",
		"ablation-index", "ablation-join", "ablation-tcop", "ablation-storage",
	} {
		if !seen[want] {
			t.Fatalf("experiment %s not registered", want)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	q := QuickConfig()
	if q.pick(100, 5) != 5 || DefaultConfig().pick(100, 5) != 100 {
		t.Fatal("pick")
	}
	if (Config{}).reps() != 1 {
		t.Fatal("reps floor")
	}
}
