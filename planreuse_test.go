package dkbms

import (
	"fmt"
	"testing"

	"dkbms/internal/dlog"
)

// TestPlanReusePinned pins how often an evaluation constructs operator
// trees, on unbound ancestor over a 16-edge chain (17 rounds). The run
// executes 51 statements: the exit rule's INSERT, the copy into the
// first delta, 16 rounds of the differentiated rule's INSERT and the
// termination COUNT(*), 15 promotions (the copy again), the query
// rule's INSERT and the answer's read. They are five statements, not
// six: the exit rule ancestor(X, Y) :- parent(X, Y) and the query rule
// query(X, Y) :- ancestor(X, Y) both render as
//
//	INSERT INTO $2 SELECT DISTINCT t0.c0, t0.c1 FROM $1 t0 EXCEPT SELECT * FROM $2
//
// over parameters of one schema, (c0 CHAR, c1 CHAR), so the run holds
// one handle for both. Each statement constructs its tree on its first
// execution and re-binds it on every later one — the query rule
// re-binds the exit rule's — except when the planner decides
// otherwise: once here, when the delta (16 rows in round 1, one fewer
// each round after) drops below the 16 parent rows and the rule's join
// starts from it, hashing it. So 5 + 1 builds and 51 − 6 = 45 reuses.
// A traced run constructs a tree for every rule execution — the exit
// rule, the 16 rounds' rule and the query rule — because tracing
// rewrites the tree it instruments; its untraced copies, counts and
// reads still re-bind: 18 + 3 builds, 30 reuses.
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
		{false, 5 + 1, 45},
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
