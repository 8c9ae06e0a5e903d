package rtlib

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
	"dkbms/internal/typeinf"
)

// compile runs the pcg → typeinf → codegen pipeline for a rule set.
func compile(t *testing.T, root string, baseTypes map[string][]rel.Type, srcs ...string) *codegen.Program {
	t.Helper()
	var rules []dlog.Clause
	for _, s := range srcs {
		rules = append(rules, dlog.MustParseClause(s))
	}
	g := pcg.Build(rules)
	a, err := pcg.Analyze(g, root)
	if err != nil {
		t.Fatal(err)
	}
	types, err := typeinf.Infer(a.Order, baseTypes)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(a.Order, types, a.BasePreds, root)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// loadEdges creates edb_<pred> and loads string pairs "a>b".
func loadEdges(t *testing.T, d *db.DB, pred string, edges ...string) {
	t.Helper()
	if err := d.Exec(fmt.Sprintf("CREATE TABLE %s (c0 CHAR, c1 CHAR)", codegen.BaseTable(pred))); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		parts := strings.SplitN(e, ">", 2)
		if err := d.Exec(fmt.Sprintf("INSERT INTO %s VALUES ('%s', '%s')",
			codegen.BaseTable(pred), parts[0], parts[1])); err != nil {
			t.Fatal(err)
		}
	}
}

var stringPair = map[string][]rel.Type{
	"e": {rel.TypeString, rel.TypeString},
}

func ancestorProgram(t *testing.T) *codegen.Program {
	return compile(t, "anc", stringPair,
		"anc(X, Y) :- e(X, Y).",
		"anc(X, Y) :- e(X, Z), anc(Z, Y).",
	)
}

func rowSet(rows []rel.Tuple) string {
	out := make([]string, len(rows))
	for i, tu := range rows {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

func TestEvaluateBothStrategies(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		d := db.OpenMemory()
		loadEdges(t, d, "e", "a>b", "b>c", "c>d")
		prog := ancestorProgram(t)
		res, err := Evaluate(d, prog, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		want := "(a, b)|(a, c)|(a, d)|(b, c)|(b, d)|(c, d)"
		if rowSet(res.Rows) != want {
			t.Fatalf("%v rows: %s", strat, rowSet(res.Rows))
		}
		if res.Stats.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", strat)
		}
		d.Close()
	}
}

func TestNaiveDoesMoreEvalWork(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	var edges []string
	for i := 0; i < 30; i++ {
		edges = append(edges, fmt.Sprintf("n%02d>n%02d", i, i+1))
	}
	loadEdges(t, d, "e", edges...)
	prog := ancestorProgram(t)
	semi, err := Evaluate(d, prog, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Evaluate(d, prog, Options{Strategy: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(semi.Rows) != rowSet(naive.Rows) {
		t.Fatal("strategies disagree")
	}
	// The paper's Test 5: naive recomputes prior iterations' tuples, so
	// its evaluation time dominates semi-naive's on a deep chain.
	if naive.Stats.Eval <= semi.Stats.Eval {
		t.Fatalf("naive eval %v not greater than semi-naive %v", naive.Stats.Eval, semi.Stats.Eval)
	}
}

func TestIterationCounts(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c", "c>d", "d>e2")
	prog := ancestorProgram(t)
	res, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rec *NodeStats
	for i := range res.Stats.Nodes {
		if res.Stats.Nodes[i].Recursive {
			rec = &res.Stats.Nodes[i]
		}
	}
	if rec == nil {
		t.Fatal("no recursive node stats")
	}
	// Path length 4: deltas shrink over 4 rounds, 5th confirms empty.
	if rec.Iterations < 4 {
		t.Fatalf("iterations = %d", rec.Iterations)
	}
	if rec.Tuples != 10 { // closure of a 4-edge chain: 4+3+2+1
		t.Fatalf("tuples = %d", rec.Tuples)
	}
}

func TestSeedsInitializeRelation(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c")
	// m seeded with 'a', closed under m(Y) :- m(X), e(X, Y) — exactly
	// the shape of a magic predicate with its query seed.
	prog := compile(t, "m", stringPair, "m(Y) :- m(X), e(X, Y).")
	prog.Seeds = []codegen.SeedFact{{Pred: "m", Tuple: rel.Tuple{rel.NewString("a")}}}
	res, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(res.Rows) != "(a)|(b)|(c)" {
		t.Fatalf("rows: %s", rowSet(res.Rows))
	}
}

func TestMissingBaseRelation(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	prog := ancestorProgram(t)
	if _, err := Evaluate(d, prog, Options{}); err == nil {
		t.Fatal("missing extensional relation accepted")
	}
}

func TestBadSeedRejected(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b")
	prog := ancestorProgram(t)
	prog.Seeds = []codegen.SeedFact{{Pred: "anc", Tuple: rel.Tuple{rel.NewInt(3)}}}
	if _, err := Evaluate(d, prog, Options{}); err == nil {
		t.Fatal("type-mismatched seed accepted")
	}
	prog.Seeds = []codegen.SeedFact{{Pred: "ghost", Tuple: rel.Tuple{rel.NewString("x")}}}
	if _, err := Evaluate(d, prog, Options{}); err == nil {
		t.Fatal("seed for unknown predicate accepted")
	}
}

func TestNoTempTablesRemain(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c")
	before := len(d.Catalog().Tables())
	prog := ancestorProgram(t)
	for _, strat := range []Strategy{SemiNaive, Naive} {
		if _, err := Evaluate(d, prog, Options{Strategy: strat}); err != nil {
			t.Fatal(err)
		}
	}
	if after := len(d.Catalog().Tables()); after != before {
		t.Fatalf("temp tables leaked: %d -> %d (%v)", before, after, d.Catalog().Tables())
	}
}

func TestNonRecursiveChain(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c")
	prog := compile(t, "ggp", stringPair,
		"gp(X, Y) :- e(X, Z), e(Z, Y).",
		"ggp(X, Y) :- gp(X, Z), e(Z, Y).",
	)
	res, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(res.Rows) != "" { // a>b>c has no third edge
		t.Fatalf("rows: %s", rowSet(res.Rows))
	}
	loadLonger := func(edges ...string) {
		for _, e := range edges {
			parts := strings.SplitN(e, ">", 2)
			if err := d.Exec(fmt.Sprintf("INSERT INTO %s VALUES ('%s', '%s')",
				codegen.BaseTable("e"), parts[0], parts[1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	loadLonger("c>d")
	res, err = Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(res.Rows) != "(a, d)" {
		t.Fatalf("rows: %s", rowSet(res.Rows))
	}
}

func TestMutualRecursionClique(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c", "c>d", "d>e2")
	prog := compile(t, "odd", stringPair,
		"odd(X, Y) :- e(X, Y).",
		"odd(X, Y) :- e(X, Z), even(Z, Y).",
		"even(X, Y) :- e(X, Z), odd(Z, Y).",
	)
	for _, strat := range []Strategy{SemiNaive, Naive} {
		res, err := Evaluate(d, prog, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		want := "(a, b)|(a, d)|(b, c)|(b, e2)|(c, d)|(d, e2)"
		if rowSet(res.Rows) != want {
			t.Fatalf("%v rows: %s", strat, rowSet(res.Rows))
		}
	}
}

func TestStrategyString(t *testing.T) {
	if SemiNaive.String() != "semi-naive" || Naive.String() != "naive" {
		t.Fatal("strategy names")
	}
}

// seedsFor builds string seed facts for one predicate.
func seedsFor(pred string, vals ...string) []codegen.SeedFact {
	out := make([]codegen.SeedFact, len(vals))
	for i, v := range vals {
		out[i] = codegen.SeedFact{Pred: pred, Tuple: rel.Tuple{rel.NewString(v)}}
	}
	return out
}
