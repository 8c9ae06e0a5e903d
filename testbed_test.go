package dkbms

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

func rowSet(rows []rel.Tuple) []string {
	out := make([]string, len(rows))
	for i, tu := range rows {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got []rel.Tuple, want ...string) {
	t.Helper()
	g := rowSet(got)
	sort.Strings(want)
	if strings.Join(g, "|") != strings.Join(want, "|") {
		t.Fatalf("rows:\n got %v\nwant %v", g, want)
	}
}

const familyKB = `
parent(john, mary). parent(john, bob).
parent(mary, ann).  parent(mary, tom).
parent(bob, lea).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

func familyTB(t *testing.T) *Testbed {
	t.Helper()
	tb := NewMemory()
	t.Cleanup(func() { tb.Close() })
	tb.MustLoad(familyKB)
	return tb
}

var allModes = []struct {
	name string
	opts QueryOptions
}{
	{"seminaive-magic", QueryOptions{}},
	{"seminaive-plain", QueryOptions{NoOptimize: true}},
	{"naive-magic", QueryOptions{Naive: true}},
	{"naive-plain", QueryOptions{Naive: true, NoOptimize: true}},
}

func TestAncestorAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.name, func(t *testing.T) {
			tb := familyTB(t)
			opts := mode.opts
			res, err := tb.Query("?- ancestor(john, W).", &opts)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)")
			if len(res.Vars) != 1 || res.Vars[0] != "W" {
				t.Fatalf("vars = %v", res.Vars)
			}
			wantOpt := !mode.opts.NoOptimize
			if res.Optimized != wantOpt {
				t.Fatalf("Optimized = %v, want %v", res.Optimized, wantOpt)
			}
		})
	}
}

func TestAncestorUnboundQuery(t *testing.T) {
	tb := familyTB(t)
	res, err := tb.Query("?- ancestor(A, D).", nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 direct + john->{ann,tom,lea} + mary/bob none beyond direct... :
	// direct: j-m, j-b, m-a, m-t, b-l ; depth2: j-a, j-t, j-l
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows: %v", len(res.Rows), rowSet(res.Rows))
	}
	if res.Optimized {
		t.Fatal("unbound query must not claim magic optimization")
	}
}

func TestBoundSecondArgument(t *testing.T) {
	tb := familyTB(t)
	res, err := tb.Query("?- ancestor(A, lea).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(john)", "(bob)")
}

func TestFullyBoundForbidden(t *testing.T) {
	tb := familyTB(t)
	if _, err := tb.Query("?- ancestor(john, lea).", nil); err == nil {
		t.Fatal("fully ground query accepted")
	}
}

func TestConjunctiveQuery(t *testing.T) {
	tb := familyTB(t)
	tb.MustLoad(`female(mary). female(ann). female(lea).`)
	res, err := tb.Query("?- ancestor(john, W), female(W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(mary)", "(ann)", "(lea)")
}

func TestNonRecursiveQuery(t *testing.T) {
	tb := familyTB(t)
	tb.MustLoad(`grandparent(X, Y) :- parent(X, Z), parent(Z, Y).`)
	res, err := tb.Query("?- grandparent(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(ann)", "(tom)", "(lea)")
}

func TestSameGeneration(t *testing.T) {
	// Classic same-generation over a small tree.
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
up(a, root). up(b, root). up(c, a). up(d, a). up(e, b).
flat(root, root).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
down(X, Y) :- up(Y, X).
`)
	for _, mode := range allModes {
		opts := mode.opts
		res, err := tb.Query("?- sg(c, W).", &opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		// same generation as c: c, d (children of a), e (child of b).
		sameRows(t, res.Rows, "(c)", "(d)", "(e)")
	}
}

func TestMutualRecursion(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
edge(n1, n2). edge(n2, n3). edge(n3, n4).
odd(X, Y) :- edge(X, Y).
odd(X, Y) :- edge(X, Z), even(Z, Y).
even(X, Y) :- edge(X, Z), odd(Z, Y).
`)
	for _, mode := range allModes {
		opts := mode.opts
		res, err := tb.Query("?- odd(n1, W).", &opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		// paths of odd length from n1: n2 (1), n4 (3)
		sameRows(t, res.Rows, "(n2)", "(n4)")
	}
}

func TestCyclicData(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
e(a, b). e(b, c). e(c, a). e(c, d).
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`)
	for _, mode := range allModes {
		opts := mode.opts
		res, err := tb.Query("?- tc(a, W).", &opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		sameRows(t, res.Rows, "(a)", "(b)", "(c)", "(d)")
	}
}

func TestIntegerConstants(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
succ(1, 2). succ(2, 3). succ(3, 4).
le(X, Y) :- succ(X, Y).
le(X, Y) :- succ(X, Z), le(Z, Y).
`)
	res, err := tb.Query("?- le(1, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(2)", "(3)", "(4)")
}

func TestMixedRulesAndFacts(t *testing.T) {
	// A predicate defined by both facts and rules exercises the §1.1
	// normalization.
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
knows(ann, bob).
friend(ann, carl).
knows(X, Y) :- friend(X, Y).
`)
	res, err := tb.Query("?- knows(ann, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(bob)", "(carl)")
}

func TestRandomGraphAgainstReferenceTC(t *testing.T) {
	// Property: for random graphs, every mode computes exactly the
	// reference transitive closure from a given source.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		tb := NewMemory()
		n := 12 + r.Intn(10)
		edges := make(map[[2]int]bool)
		var tuples []rel.Tuple
		for i := 0; i < n*2; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b || edges[[2]int{a, b}] {
				continue
			}
			edges[[2]int{a, b}] = true
			tuples = append(tuples, rel.Tuple{rel.NewInt(int64(a)), rel.NewInt(int64(b))})
		}
		if len(tuples) == 0 {
			tb.Close()
			continue
		}
		if err := tb.AssertTuples("e", tuples); err != nil {
			t.Fatal(err)
		}
		tb.MustLoad(`
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`)
		src := 0
		// Reference closure by BFS.
		adj := make(map[int][]int)
		for e := range edges {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		seen := make(map[int]bool)
		stack := append([]int(nil), adj[src]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, adj[v]...)
		}
		var want []string
		for v := range seen {
			want = append(want, fmt.Sprintf("(%d)", v))
		}
		for _, mode := range allModes {
			opts := mode.opts
			res, err := tb.Query(fmt.Sprintf("?- tc(%d, W).", src), &opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode.name, err)
			}
			sameRows(t, res.Rows, want...)
		}
		tb.Close()
	}
}

func TestEvalStatsPopulated(t *testing.T) {
	tb := familyTB(t)
	res, err := tb.Query("?- ancestor(john, W).", &QueryOptions{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compile.Total <= 0 || res.Eval.Elapsed <= 0 {
		t.Fatalf("timings missing: %+v %+v", res.Compile, res.Eval)
	}
	found := false
	for _, ns := range res.Eval.Nodes {
		if ns.Recursive && ns.Iterations < 2 {
			t.Fatalf("recursive node with %d iterations", ns.Iterations)
		}
		if ns.Recursive {
			found = true
		}
	}
	if !found {
		t.Fatal("no recursive node in ancestor evaluation")
	}
}

func TestSemanticErrors(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad("p(X) :- undefined_pred(X).")
	if _, err := tb.Query("?- p(W).", nil); err == nil {
		t.Fatal("undefined predicate accepted")
	}
	tb2 := NewMemory()
	defer tb2.Close()
	tb2.MustLoad(`
num(n, 1).
bad(X) :- num(X, X).
`)
	if _, err := tb2.Query("?- bad(W).", nil); err == nil {
		t.Fatal("type conflict accepted")
	}
}

func TestLoadRejectsQueries(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	if err := tb.Load("p(a). ?- p(X)."); err == nil {
		t.Fatal("Load accepted a query")
	}
}

func TestReservedPredicatesRejected(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	if err := tb.Load("_sneaky(X) :- e(X)."); err == nil {
		t.Fatal("reserved predicate accepted")
	}
}

func TestUpdateAndQueryFromStored(t *testing.T) {
	tb := familyTB(t)
	st, err := tb.Update()
	if err != nil {
		t.Fatal(err)
	}
	if st.NewRules != 2 {
		t.Fatalf("NewRules = %d", st.NewRules)
	}
	if tb.Stored().RuleCount() != 2 {
		t.Fatalf("rule count = %d", tb.Stored().RuleCount())
	}
	if len(tb.Workspace().Rules()) != 0 {
		t.Fatal("workspace not cleared")
	}
	// Query must now pull the rules from the stored D/KB.
	res, err := tb.Query("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)")
}

func TestUpdateIncrementalReachability(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
e(x1, x2).
a(X, Y) :- b(X, Y).
b(X, Y) :- e(X, Y).
`)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	// a reaches b, e; b reaches e.
	rows, err := tb.DB().Query("SELECT topredname FROM reachablepreds WHERE frompredname = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows.Tuples, "(b)", "(e)")

	// Second update extends b downward; a's reachability must grow
	// without recomputing the world.
	tb.MustLoad(`
f(x2, x3).
b(X, Y) :- c(X, Y).
c(X, Y) :- f(X, Y).
`)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	rows, err = tb.DB().Query("SELECT topredname FROM reachablepreds WHERE frompredname = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows.Tuples, "(b)", "(c)", "(e)", "(f)")
	// And queries over the extended chain work.
	res, err := tb.Query("?- a(x2, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(x3)")
}

func TestUpdateCyclicRules(t *testing.T) {
	tb := familyTB(t)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.DB().Query("SELECT topredname FROM reachablepreds WHERE frompredname = 'ancestor'")
	if err != nil {
		t.Fatal(err)
	}
	// ancestor reaches parent and (via the recursive rule) itself.
	sameRows(t, rows.Tuples, "(ancestor)", "(parent)")
}

func TestPersistentTestbed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.db")
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(familyKB)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	tb2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	res, err := tb2.Query("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, res.Rows, "(mary)", "(bob)", "(ann)", "(tom)", "(lea)")
}

// TestMixedCasePredicates: predicate names are case-sensitive, SQL
// identifiers are not, and the tables behind parentOf, parentof and the
// derived reachFrom (and its magic predicates) must stay apart and
// findable. Before names were spelled case-safe (codegen.Ident), Load
// of parentOf panicked and a query over reachFrom failed with "no
// table". Memory and file-backed (reopened), every evaluation mode.
func TestMixedCasePredicates(t *testing.T) {
	const kb = `
parentOf(john, mary). parentOf(mary, ann). parentOf(ann, tom).
parentof(zed, zoe).
reachFrom(X, Y) :- parentOf(X, Y).
reachFrom(X, Y) :- parentOf(X, Z), reachFrom(Z, Y).
reachfrom(X, Y) :- parentof(X, Y).
`
	check := func(t *testing.T, tb *Testbed) {
		t.Helper()
		for _, mode := range allModes {
			for _, tc := range []struct {
				q    string
				want []string
			}{
				{"?- reachFrom(john, W).", []string{"(mary)", "(ann)", "(tom)"}},
				{"?- reachFrom(A, tom).", []string{"(john)", "(mary)", "(ann)"}},
				{"?- reachfrom(A, B).", []string{"(zed, zoe)"}},
				{"?- parentOf(mary, W).", []string{"(ann)"}},
				{"?- parentof(A, B).", []string{"(zed, zoe)"}},
			} {
				opts := mode.opts
				res, err := tb.Query(tc.q, &opts)
				if err != nil {
					t.Fatalf("%s %s: %v", mode.name, tc.q, err)
				}
				sameRows(t, res.Rows, tc.want...)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		tb := NewMemory()
		defer tb.Close()
		tb.MustLoad(kb)
		check(t, tb)
	})
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "kb.db")
		tb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tb.MustLoad(kb)
		if _, err := tb.Update(); err != nil {
			t.Fatal(err)
		}
		check(t, tb)
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
		if tb, err = Open(path); err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		check(t, tb)
		if n, err := tb.RetractSrc("parentOf(ann, tom)"); err != nil || n != 1 {
			t.Fatalf("retract: %d, %v", n, err)
		}
		res, err := tb.Query("?- reachFrom(john, W).", nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, res.Rows, "(mary)", "(ann)")
	})
}

// TestDefaultMagicDecision: by default magic sets apply exactly when a
// constant binds something — in the query or in a relevant rule's body —
// and a constant-free program compiles to what NoOptimize compiles.
func TestDefaultMagicDecision(t *testing.T) {
	tb := familyTB(t)
	tb.MustLoad("special(X) :- ancestor(mary, X).")
	noMagic := &QueryOptions{NoOptimize: true}

	bound, err := tb.Query("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Optimized {
		t.Fatal("a bound query was not optimized")
	}

	free, err := dlog.ParseQuery("?- ancestor(A, D).")
	if err != nil {
		t.Fatal(err)
	}
	def, err := tb.Compile(free, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tb.Compile(free, noMagic)
	if err != nil {
		t.Fatal(err)
	}
	if def.Optimized {
		t.Fatal("a constant-free program was optimized")
	}
	if got, want := def.Program.Explain(), plain.Program.Explain(); got != want {
		t.Fatalf("constant-free program differs from NoOptimize's:\n got %s\nwant %s", got, want)
	}

	// The query names no constant; the rule it reaches does.
	const q = "?- special(X)."
	magic, err := tb.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !magic.Optimized {
		t.Fatal("a constant in a rule body did not optimize")
	}
	want, err := tb.Query(q, noMagic)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, magic.Rows, rowSet(want.Rows)...)
	sameRows(t, magic.Rows, "(ann)", "(tom)")
}

func TestNaiveMatchesSemiNaiveStats(t *testing.T) {
	tb := familyTB(t)
	naive, err := tb.Query("?- ancestor(john, W).", &QueryOptions{Naive: true, NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := tb.Query("?- ancestor(john, W).", &QueryOptions{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowSet(naive.Rows), "|") != strings.Join(rowSet(semi.Rows), "|") {
		t.Fatal("strategies disagree")
	}
	if naive.Strategy == semi.Strategy {
		t.Fatal("strategy labels wrong")
	}
}

func TestNoTempTableLeaks(t *testing.T) {
	tb := familyTB(t)
	before := len(tb.DB().Catalog().Tables())
	for i := 0; i < 5; i++ {
		if _, err := tb.Query("?- ancestor(john, W).", nil); err != nil {
			t.Fatal(err)
		}
	}
	after := len(tb.DB().Catalog().Tables())
	if after != before {
		t.Fatalf("temp tables leaked: %d -> %d: %v", before, after, tb.DB().Catalog().Tables())
	}
}

func TestQueryResultFormat(t *testing.T) {
	tb := familyTB(t)
	res, err := tb.Query("?- parent(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.HasPrefix(out, "W\n") || !strings.Contains(out, "mary") {
		t.Fatalf("format output:\n%s", out)
	}
}
