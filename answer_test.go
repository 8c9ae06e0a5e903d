package dkbms

import (
	"strings"
	"testing"

	"dkbms/internal/core"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// TestQueryAnswerReadInPlace: a query rule that only renames one
// derived relation — _query(V1..Vn) :- p(V1..Vn), distinct variables in
// order — is not evaluated; the program reads the answer from p's
// relation (codegen.Program.QueryPred is p) and has no node for the
// query. Every other shape keeps its query node. Each shape's answers
// equal the reference interpreter's, and the run leaves no temp table.
func TestQueryAnswerReadInPlace(t *testing.T) {
	const src = `
parent(t1, t2).
parent(t2, t3).
parent(t3, t4).
parent(t4, t2).
parent(t3, t5).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
c(X, Y) :- parent(X, Z), parent(Z, Y).
`
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(src)
	prog, err := dlog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	var rules []dlog.Clause
	facts := make(map[string][]rel.Tuple)
	for _, c := range prog.Clauses {
		if !c.IsFact() {
			rules = append(rules, c)
			continue
		}
		tu := make(rel.Tuple, len(c.Head.Args))
		for i, a := range c.Head.Args {
			tu[i] = a.Val
		}
		facts[c.Head.Pred] = append(facts[c.Head.Pred], tu)
	}

	for _, tc := range []struct {
		name, query string
		opts        QueryOptions
		forceMagic  bool
		queryPred   string
		nodes       int
	}{
		{"unbound", "?- ancestor(X, Y).", QueryOptions{}, false, "ancestor", 1},
		{"unbound, swapped variables", "?- ancestor(Y, X).", QueryOptions{}, false, "ancestor", 1},
		{"factored", "?- ancestor(t3, Y).", QueryOptions{}, false, "ancestor__bf", 2},
		{"non-recursive", "?- c(X, Y).", QueryOptions{}, false, "c", 1},
		{"repeated variable", "?- ancestor(X, X).", QueryOptions{}, false, dlog.QueryPred, 2},
		{"constant, unoptimized", "?- ancestor(t3, Y).", QueryOptions{NoOptimize: true}, false, dlog.QueryPred, 2},
		{"magic sets", "?- ancestor(t3, Y).", QueryOptions{}, true, "_query__f", 3},
		{"base relation", "?- parent(X, Y).", QueryOptions{}, false, dlog.QueryPred, 1},
		{"two goals", "?- ancestor(X, Y), parent(Y, Z).", QueryOptions{}, false, dlog.QueryPred, 2},
	} {
		q, err := dlog.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var compiled *core.Compiled
		if tc.forceMagic {
			compiled = compileMagic(t, tb, tc.query, &tc.opts)
		} else if compiled, err = tb.Compile(q, &tc.opts); err != nil {
			t.Fatal(err)
		}
		if p := compiled.Program; p.QueryPred != tc.queryPred || len(p.Nodes) != tc.nodes {
			t.Errorf("%s %s: answer read from %s after %d nodes, want %s after %d\n%s",
				tc.name, tc.query, p.QueryPred, len(p.Nodes), tc.queryPred, tc.nodes, p.Explain())
		}
		before := len(tb.DB().Catalog().Tables())
		res, err := tb.Evaluate(compiled, &tc.opts)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.name, tc.query, err)
		}
		if after := len(tb.DB().Catalog().Tables()); after != before {
			t.Errorf("%s %s: %d tables after the run, %d before: %v", tc.name, tc.query, after, before, tb.DB().Catalog().Tables())
		}
		want := refAnswer(q, rules, facts)
		if len(want) == 0 {
			t.Fatalf("%s %s: the reference answer is empty; the shape proves nothing", tc.name, tc.query)
		}
		if got := rowSet(res.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s %s:\n got %v\nwant %v", tc.name, tc.query, got, want)
		}
	}
}
