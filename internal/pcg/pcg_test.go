package pcg

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/dlog"
)

// reachNames returns the names of the predicates in set.
func reachNames(g *Graph, set []bool) map[string]bool {
	out := make(map[string]bool)
	for id, in := range set {
		if in {
			out[g.Name(id)] = true
		}
	}
	return out
}

// closureNames returns TransitiveClosure by name, as the reference
// model's: a set for each derived predicate.
func closureNames(g *Graph) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for id, to := range g.TransitiveClosure() {
		if !g.IsDerived(g.Name(id)) {
			if to != nil {
				panic("a base predicate has a closure list")
			}
			continue
		}
		set := make(map[string]bool, len(to))
		for _, q := range to {
			set[g.Name(int(q))] = true
		}
		out[g.Name(id)] = set
	}
	return out
}

func rules(t *testing.T, srcs ...string) []dlog.Clause {
	t.Helper()
	out := make([]dlog.Clause, len(srcs))
	for i, s := range srcs {
		out[i] = dlog.MustParseClause(s)
	}
	return out
}

// paperRules is the sample D/KB of the paper's Figure 1 (with base
// predicates b1, b2 and a sensible reading of the OCR-garbled clauses):
// p and q are mutually recursive; p1 and p2 are each self-recursive.
func paperRules(t *testing.T) []dlog.Clause {
	return rules(t,
		"p(X, Y) :- p1(X, Z), q(Z, Y).", // R1
		"q(X, Y) :- p(X, Y).",           // R6 (mutual recursion p<->q)
		"p(X, Y) :- b1(X, Y).",          // exit for p
		"p1(X, Y) :- b1(X, Z), p1(Z, Y).",
		"p1(X, Y) :- b1(X, Y).",
		"p2(X, Y) :- b2(X, Z), p2(Z, Y).",
		"p2(X, Y) :- b2(X, Y).",
		"q(X, Y) :- p2(X, Y).",
	)
}

func TestReachable(t *testing.T) {
	g := Build(paperRules(t))
	r := reachNames(g, g.Reachable("p"))
	for _, want := range []string{"p", "q", "p1", "p2", "b1", "b2"} {
		if !r[want] {
			t.Errorf("%s not reachable from p", want)
		}
	}
	r2 := reachNames(g, g.Reachable("p2"))
	if r2["p1"] || r2["q"] {
		t.Errorf("p2 reaches too much: %v", r2)
	}
	if !r2["b2"] || !r2["p2"] {
		t.Errorf("p2 reachability wrong: %v", r2)
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := Build(rules(t,
		"a(X) :- b(X).",
		"b(X) :- c(X).",
		"c(X) :- base(X).",
	))
	tc := closureNames(g)
	if !tc["a"]["b"] || !tc["a"]["c"] || !tc["a"]["base"] {
		t.Fatalf("tc[a] = %v", tc["a"])
	}
	if tc["a"]["a"] {
		t.Fatal("a is not on a cycle; must not reach itself")
	}
	if !tc["c"]["base"] || tc["c"]["a"] {
		t.Fatalf("tc[c] = %v", tc["c"])
	}
	// Self-recursive predicate reaches itself.
	g2 := Build(rules(t, "p(X,Y) :- e(X,Z), p(Z,Y).", "p(X,Y) :- e(X,Y)."))
	tc2 := closureNames(g2)
	if !tc2["p"]["p"] || !tc2["p"]["e"] {
		t.Fatalf("tc2[p] = %v", tc2["p"])
	}
}

func TestAnalyzeCliques(t *testing.T) {
	g := Build(paperRules(t))
	a, err := Analyze(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	// Expected nodes: {p,q} mutual clique, {p1} self clique, {p2} self
	// clique. Base: b1, b2.
	if strings.Join(a.BasePreds, ",") != "b1,b2" {
		t.Fatalf("base preds %v", a.BasePreds)
	}
	if len(a.Order) != 3 {
		t.Fatalf("order has %d nodes: %+v", len(a.Order), a.Order)
	}
	byKey := map[string]*Node{}
	for i := range a.Order {
		byKey[strings.Join(a.Order[i].Preds, ",")] = &a.Order[i]
	}
	pq := byKey["p,q"]
	if pq == nil || !pq.Recursive {
		t.Fatalf("missing mutual clique p,q: %v", byKey)
	}
	if len(pq.RecursiveRules) != 2 { // R1 (p via q) and R6 (q via p)
		t.Fatalf("p,q recursive rules = %d", len(pq.RecursiveRules))
	}
	if len(pq.ExitRules) != 2 { // p :- b1 ; q :- p2
		t.Fatalf("p,q exit rules = %d", len(pq.ExitRules))
	}
	p1 := byKey["p1"]
	if p1 == nil || !p1.Recursive || len(p1.RecursiveRules) != 1 || len(p1.ExitRules) != 1 {
		t.Fatalf("p1 clique wrong: %+v", p1)
	}
}

func TestEvaluationOrderDependenciesFirst(t *testing.T) {
	g := Build(paperRules(t))
	a, err := Analyze(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range a.Order {
		for _, p := range n.Preds {
			pos[p] = i
		}
	}
	// p1 and p2 must be evaluated before the {p,q} clique.
	if !(pos["p1"] < pos["p"] && pos["p2"] < pos["p"]) {
		t.Fatalf("order positions: %v", pos)
	}
}

func TestAnalyzeNonRecursive(t *testing.T) {
	g := Build(rules(t,
		"gp(X, Y) :- parent(X, Z), parent(Z, Y).",
		"ggp(X, Y) :- gp(X, Z), parent(Z, Y).",
	))
	a, err := Analyze(g, "ggp")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 2 {
		t.Fatalf("order = %+v", a.Order)
	}
	if a.Order[0].Preds[0] != "gp" || a.Order[1].Preds[0] != "ggp" {
		t.Fatalf("order = %v then %v", a.Order[0].Preds, a.Order[1].Preds)
	}
	for _, n := range a.Order {
		if n.Recursive || len(n.RecursiveRules) != 0 {
			t.Fatalf("non-recursive node misclassified: %+v", n)
		}
	}
}

func TestAnalyzeScopesToRoots(t *testing.T) {
	g := Build(rules(t,
		"a(X) :- base(X).",
		"unrelated(X) :- other(X).",
	))
	an, err := Analyze(g, "a")
	if err != nil {
		t.Fatal(err)
	}
	if g.Contains(an.Reachable, "unrelated") {
		t.Fatal("unrelated predicate in scope")
	}
	if len(an.Order) != 1 {
		t.Fatalf("order = %+v", an.Order)
	}
}

func TestAnalyzeMissingRoot(t *testing.T) {
	g := Build(rules(t, "a(X) :- b(X)."))
	if _, err := Analyze(g, "zzz"); err == nil {
		t.Fatal("missing root accepted")
	}
}

func TestSelfLoopIsClique(t *testing.T) {
	g := Build(rules(t,
		"anc(X,Y) :- par(X,Y).",
		"anc(X,Y) :- par(X,Z), anc(Z,Y).",
	))
	a, err := Analyze(g, "anc")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 1 || !a.Order[0].Recursive {
		t.Fatalf("%+v", a.Order)
	}
	n := a.Order[0]
	if len(n.ExitRules) != 1 || len(n.RecursiveRules) != 1 {
		t.Fatalf("rule split: %d exit, %d recursive", len(n.ExitRules), len(n.RecursiveRules))
	}
}

func TestDeepChainIterativeTarjan(t *testing.T) {
	// A chain of 5000 rules must not blow the stack (iterative Tarjan).
	var rs []dlog.Clause
	const depth = 5000
	for i := 0; i < depth; i++ {
		rs = append(rs, dlog.MustParseClause(
			fmt.Sprintf("p%d(X) :- p%d(X).", i, i+1)))
	}
	rs = append(rs, dlog.MustParseClause(fmt.Sprintf("p%d(X) :- base(X).", depth)))
	g := Build(rs)
	a, err := Analyze(g, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != depth+1 {
		t.Fatalf("order has %d nodes", len(a.Order))
	}
	// Dependencies first: p5000 first, p0 last.
	if a.Order[0].Preds[0] != fmt.Sprintf("p%d", depth) || a.Order[len(a.Order)-1].Preds[0] != "p0" {
		t.Fatalf("order ends: %v ... %v", a.Order[0].Preds, a.Order[len(a.Order)-1].Preds)
	}
}

func TestBigCycleOneClique(t *testing.T) {
	// p0 -> p1 -> ... -> p99 -> p0: one clique of 100.
	var rs []dlog.Clause
	for i := 0; i < 100; i++ {
		rs = append(rs, dlog.MustParseClause(
			fmt.Sprintf("p%d(X) :- p%d(X).", i, (i+1)%100)))
		rs = append(rs, dlog.MustParseClause(
			fmt.Sprintf("p%d(X) :- base%d(X).", i, i)))
	}
	g := Build(rs)
	a, err := Analyze(g, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != 1 {
		t.Fatalf("%d nodes, want 1 clique", len(a.Order))
	}
	n := a.Order[0]
	if len(n.Preds) != 100 || len(n.RecursiveRules) != 100 || len(n.ExitRules) != 100 {
		t.Fatalf("clique: %d preds, %d rec, %d exit", len(n.Preds), len(n.RecursiveRules), len(n.ExitRules))
	}
	if !sort.StringsAreSorted(n.Preds) {
		t.Fatal("clique preds not sorted (determinism)")
	}
}

func TestDeterministicOrder(t *testing.T) {
	build := func() string {
		g := Build(rules(t,
			"a(X) :- b(X), c(X).",
			"b(X) :- base(X).",
			"c(X) :- base(X).",
		))
		an, err := Analyze(g, "a")
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for _, n := range an.Order {
			parts = append(parts, strings.Join(n.Preds, "+"))
		}
		return strings.Join(parts, "|")
	}
	first := build()
	for i := 0; i < 10; i++ {
		if build() != first {
			t.Fatal("analysis order is nondeterministic")
		}
	}
}

// TestNodeDeps: the evaluation order puts every node after the nodes it
// reads. Each derived predicate a node's rules read is defined by that
// node or an earlier one, and the {p,q} clique reads p1 and p2 from
// earlier nodes.
func TestNodeDeps(t *testing.T) {
	g := Build(paperRules(t))
	a, err := Analyze(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range a.Order {
		for _, p := range n.Preds {
			pos[p] = i
		}
	}
	// reads maps each derived predicate a node's rules read outside
	// the node to the position of the node defining it.
	reads := func(i int) map[string]int {
		n := a.Order[i]
		out := map[string]int{}
		for _, c := range append(append([]dlog.Clause(nil), n.ExitRules...), n.RecursiveRules...) {
			for _, b := range c.Body {
				if j, ok := pos[b.Pred]; ok && j != i {
					out[b.Pred] = j
				}
			}
		}
		return out
	}
	for i, n := range a.Order {
		for pred, j := range reads(i) {
			if j > i {
				t.Errorf("node %d %v reads %s, defined by later node %d", i, n.Preds, pred, j)
			}
		}
	}
	got := reads(pos["p"])
	if len(got) != 2 || got["p1"] != pos["p1"] || got["p2"] != pos["p2"] {
		t.Fatalf("the {p,q} clique reads %v from other nodes, want p1 and p2", got)
	}
	if pos["p"] != pos["q"] || pos["p1"] >= pos["p"] || pos["p2"] >= pos["p"] {
		t.Fatalf("order %v", pos)
	}
}
