package dkbms

import (
	"fmt"
	"testing"

	"dkbms/internal/dlog"
)

// TestPlanReusePinned pins how often an evaluation constructs operator
// trees, on unbound ancestor over a 16-edge chain (17 rounds). Each of
// the run's six statements — the exit rule's INSERT, the copy into the
// first delta, the differentiated rule's INSERT, the termination
// COUNT(*), the query rule's INSERT and the answer's read — constructs
// its tree on its first execution and re-binds it on every later one,
// except when the planner decides otherwise: once here, when the delta
// (16 rows in round 1, one fewer each round after) drops below the 16
// parent rows and the rule's join starts from it, hashing it. A traced
// run constructs a tree for every rule execution — the exit rule, the
// 16 rounds' rule and the query rule — because tracing rewrites the
// tree it instruments; its untraced copies, counts and reads still
// re-bind.
func TestPlanReusePinned(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	var src string
	for i := 0; i < 16; i++ {
		src += fmt.Sprintf("parent(n%d, n%d).\n", i, i+1)
	}
	tb.MustLoad(src + `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	q, err := dlog.ParseQuery("?- ancestor(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace          bool
		builds, reuses int64
	}{
		{false, 6 + 1, 44},
		{true, 18 + 3, 30},
	} {
		opts := &QueryOptions{NoOptimize: true, Trace: tc.trace}
		compiled, err := tb.Compile(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := tb.DB().StatsSnapshot()
		res, err := tb.Evaluate(compiled, opts)
		if err != nil {
			t.Fatal(err)
		}
		after := tb.DB().StatsSnapshot()
		if len(res.Rows) != 136 || res.Iterations() != 17 {
			t.Fatalf("trace=%v: %d answers in %d rounds, want 136 in 17", tc.trace, len(res.Rows), res.Iterations())
		}
		builds, reuses := after.Builds-before.Builds, after.Reuses-before.Reuses
		if executions := after.Selects - before.Selects + after.Inserts - before.Inserts; builds+reuses != executions {
			t.Errorf("trace=%v: %d builds + %d reuses, %d executions", tc.trace, builds, reuses, executions)
		}
		if builds != tc.builds || reuses != tc.reuses {
			t.Errorf("trace=%v: %d builds, %d reuses; pinned %d, %d", tc.trace, builds, reuses, tc.builds, tc.reuses)
		}
	}
}
