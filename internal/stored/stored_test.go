package stored

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

func open(t *testing.T, opts Options) (*db.DB, *Manager) {
	t.Helper()
	d := db.OpenMemory()
	t.Cleanup(func() { d.Close() })
	m, err := Open(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func clause(s string) dlog.Clause { return dlog.MustParseClause(s) }

func ruleSet(rules []dlog.Clause) string {
	out := make([]string, len(rules))
	for i, c := range rules {
		out[i] = c.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

func TestSystemTablesCreated(t *testing.T) {
	d, _ := open(t, Options{})
	for _, tab := range []string{TabRuleSource, TabReachablePreds, TabIDBRels, TabIDBCols, TabEDBRels, TabEDBCols} {
		if !d.HasTable(tab) {
			t.Fatalf("missing system table %s", tab)
		}
	}
}

func TestInsertFactsAndDictionary(t *testing.T) {
	_, m := open(t, Options{})
	err := m.InsertFacts("parent", []rel.Tuple{
		{rel.NewString("john"), rel.NewString("mary")},
		{rel.NewString("mary"), rel.NewString("ann")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.FactCount("parent") != 2 {
		t.Fatalf("fact count = %d", m.FactCount("parent"))
	}
	types, err := m.BaseTypes([]string{"parent", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || len(types["parent"]) != 2 || types["parent"][0] != rel.TypeString {
		t.Fatalf("types = %v", types)
	}
}

func TestInsertFactsTypeConflicts(t *testing.T) {
	_, m := open(t, Options{})
	if err := m.InsertFact("p", rel.Tuple{rel.NewString("a"), rel.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertFact("p", rel.Tuple{rel.NewString("a")}); err == nil {
		t.Fatal("arity change accepted")
	}
	if err := m.InsertFact("p", rel.Tuple{rel.NewInt(1), rel.NewInt(1)}); err == nil {
		t.Fatal("type change accepted")
	}
}

func TestCreateFactIndex(t *testing.T) {
	d, m := open(t, Options{})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	if err := m.CreateFactIndex("e", []int{0}); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := m.CreateFactIndex("e", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateFactIndex("e", []int{5}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := m.CreateFactIndex("ghost", []int{0}); err == nil {
		t.Fatal("index on missing predicate accepted")
	}
	if d.Catalog().Index("edb_e_ix_c0") == nil {
		t.Fatal("index not created")
	}
}

func commitRules(t *testing.T, m *Manager, srcs ...string) UpdateStats {
	t.Helper()
	var rules []dlog.Clause
	for _, s := range srcs {
		rules = append(rules, clause(s))
	}
	// Any base predicates must already exist; tests load them first.
	st, err := m.Update(rules)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestUpdateStoresRulesAndClosure(t *testing.T) {
	_, m := open(t, Options{})
	m.InsertFact("parent", rel.Tuple{rel.NewString("john"), rel.NewString("mary")})
	st := commitRules(t, m,
		"ancestor(X, Y) :- parent(X, Y).",
		"ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
	)
	if st.NewRules != 2 || st.Total <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if m.RuleCount() != 2 {
		t.Fatalf("rule count = %d", m.RuleCount())
	}
	// ancestor reaches parent and itself: 2 edges.
	if m.ReachableEdges() != 2 {
		t.Fatalf("reachable edges = %d", m.ReachableEdges())
	}
	types, err := m.DerivedTypes([]string{"ancestor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(types["ancestor"]) != 2 || types["ancestor"][1] != rel.TypeString {
		t.Fatalf("derived types = %v", types)
	}
}

func TestExtractRelevant(t *testing.T) {
	_, m := open(t, Options{})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	commitRules(t, m,
		"a(X, Y) :- b(X, Y).",
		"b(X, Y) :- c(X, Y).",
		"c(X, Y) :- e(X, Y).",
		"z(X, Y) :- e(X, Y).", // irrelevant to a
	)
	rules, err := m.ExtractRelevant([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	want := ruleSet([]dlog.Clause{
		clause("a(X, Y) :- b(X, Y)."),
		clause("b(X, Y) :- c(X, Y)."),
		clause("c(X, Y) :- e(X, Y)."),
	})
	if ruleSet(rules) != want {
		t.Fatalf("extracted:\n%s\nwant:\n%s", ruleSet(rules), want)
	}
}

func TestExtractRelevantWithoutCompiledStorage(t *testing.T) {
	_, m := open(t, Options{NoCompiledRules: true})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	commitRules(t, m,
		"a(X, Y) :- b(X, Y).",
		"b(X, Y) :- e(X, Y).",
	)
	if m.ReachableEdges() != 0 {
		t.Fatal("NoCompiledRules still wrote reachablepreds")
	}
	// Direct extraction returns only a's own rules...
	rules, err := m.ExtractRelevant([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("direct extraction returned %d rules", len(rules))
	}
	// ...so callers iterate (as the compiler does).
	rules2, err := m.ExtractRelevant([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules2) != 1 {
		t.Fatalf("second hop returned %d rules", len(rules2))
	}
}

// TestExtractRelevantStatements: ExtractRelevant is one SELECT for a
// frontier of up to sql.MaxParam predicates, whether its statement is
// kept (a compile's widest frontier, 20, as Table 4 at R_r = 20 asks)
// or prepared for the call (past memoWidth), and one per sql.MaxParam
// beyond, where a rule relevant to both chunks comes back once.
func TestExtractRelevantStatements(t *testing.T) {
	for _, opts := range []Options{{}, {NoCompiledRules: true}} {
		_, m := open(t, opts)
		m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
		commitRules(t, m,
			"a(X, Y) :- b(X, Y).",
			"b(X, Y) :- e(X, Y).",
			"z(X, Y) :- e(X, Y).", // irrelevant to every frontier
		)
		for _, n := range []int{1, 3, 20, memoWidth + 1, sql.MaxParam, sql.MaxParam + 1} {
			// a first and b last: b's rule is reached through a as well
			// (with compiled storage), and past sql.MaxParam from the
			// other chunk.
			preds := []string{"a"}
			for len(preds) < n-1 {
				preds = append(preds, fmt.Sprintf("base%d", len(preds)))
			}
			want := []dlog.Clause{clause("a(X, Y) :- b(X, Y)."), clause("b(X, Y) :- e(X, Y).")}
			switch {
			case n > 1:
				preds = append(preds, "b")
			case opts.NoCompiledRules:
				want = want[:1]
			}
			before := m.DB().StatsSnapshot().Selects
			rules, err := m.ExtractRelevant(preds)
			if err != nil {
				t.Fatal(err)
			}
			selects, wantSelects := m.DB().StatsSnapshot().Selects-before, int64(1)
			if n > sql.MaxParam {
				wantSelects = 2
			}
			if selects != wantSelects {
				t.Errorf("%+v, %d predicates: %d SELECTs, want %d", opts, n, selects, wantSelects)
			}
			if ruleSet(rules) != ruleSet(want) {
				t.Errorf("%+v, %d predicates: extracted\n%s\nwant\n%s", opts, n, ruleSet(rules), ruleSet(want))
			}
		}
	}
}

func TestUpdateRejectsFacts(t *testing.T) {
	_, m := open(t, Options{})
	if _, err := m.Update([]dlog.Clause{clause("p(a).")}); err == nil {
		t.Fatal("fact accepted by Update")
	}
}

func TestUpdateTypeConsistencyAcrossCommits(t *testing.T) {
	_, m := open(t, Options{})
	m.InsertFact("s", rel.Tuple{rel.NewString("a")})
	m.InsertFact("n", rel.Tuple{rel.NewInt(1)})
	commitRules(t, m, "p(X) :- s(X).")
	// Second commit tries to redefine p with an int column.
	if _, err := m.Update([]dlog.Clause{clause("p(X) :- n(X).")}); err == nil {
		t.Fatal("type redefinition accepted")
	}
}

func TestUpdateUndefinedBaseRejected(t *testing.T) {
	_, m := open(t, Options{})
	if _, err := m.Update([]dlog.Clause{clause("p(X) :- nothing(X).")}); err == nil {
		t.Fatal("rule over undefined predicate accepted")
	}
}

func TestIncrementalUpstreamPropagation(t *testing.T) {
	d, m := open(t, Options{})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	m.InsertFact("f", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	commitRules(t, m,
		"top(X, Y) :- mid(X, Y).",
		"mid(X, Y) :- e(X, Y).",
	)
	// Commit extends mid; top's closure must grow transitively.
	commitRules(t, m, "mid(X, Y) :- low(X, Y).", "low(X, Y) :- f(X, Y).")
	rows, err := d.Query("SELECT topredname FROM reachablepreds WHERE frompredname = 'top'")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tu := range rows.Tuples {
		got = append(got, tu[0].Str)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "e,f,low,mid" {
		t.Fatalf("top reaches %v", got)
	}
}

func TestIncrementalCycleCreation(t *testing.T) {
	d, m := open(t, Options{})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	commitRules(t, m,
		"x(A, B) :- y(A, B).",
		"y(A, B) :- e(A, B).",
	)
	// New rule closes a cycle: y :- x. Now x reaches x and y reaches y.
	commitRules(t, m, "y(A, B) :- x(A, B).")
	for _, p := range []string{"x", "y"} {
		rows, err := d.Query(fmt.Sprintf(
			"SELECT topredname FROM reachablepreds WHERE frompredname = '%s'", p))
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, tu := range rows.Tuples {
			found[tu[0].Str] = true
		}
		if !found["x"] || !found["y"] || !found["e"] {
			t.Fatalf("%s reaches %v", p, found)
		}
	}
}

func TestIncrementalMatchesFromScratch(t *testing.T) {
	// Property: after a sequence of updates, reachablepreds equals the
	// closure computed from scratch over all stored rules.
	d, m := open(t, Options{})
	m.InsertFact("e0", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	batches := [][]string{
		{"p0(X, Y) :- e0(X, Y)."},
		{"p1(X, Y) :- p0(X, Y).", "p2(X, Y) :- p1(X, Y)."},
		{"p0(X, Y) :- p3(X, Y).", "p3(X, Y) :- e0(X, Y)."},
		{"p3(X, Y) :- p2(X, Y)."}, // closes a big cycle
		{"p4(X, Y) :- p2(X, Y), p0(X, Y)."},
	}
	var all []dlog.Clause
	for _, b := range batches {
		var rules []dlog.Clause
		for _, s := range b {
			rules = append(rules, clause(s))
		}
		all = append(all, rules...)
		if _, err := m.Update(rules); err != nil {
			t.Fatal(err)
		}
	}
	// From-scratch closure via pcg on all rules.
	fromScratch := make(map[string]map[string]bool)
	{
		g := buildGraph(all)
		for p, reach := range g {
			fromScratch[p] = reach
		}
	}
	rows, err := d.Query("SELECT frompredname, topredname FROM reachablepreds")
	if err != nil {
		t.Fatal(err)
	}
	gotEdges := make(map[string]map[string]bool)
	for _, tu := range rows.Tuples {
		if gotEdges[tu[0].Str] == nil {
			gotEdges[tu[0].Str] = make(map[string]bool)
		}
		gotEdges[tu[0].Str][tu[1].Str] = true
	}
	for p, want := range fromScratch {
		got := gotEdges[p]
		if len(got) != len(want) {
			t.Fatalf("closure of %s: got %v want %v", p, got, want)
		}
		for q := range want {
			if !got[q] {
				t.Fatalf("closure of %s missing %s", p, q)
			}
		}
	}
	if len(gotEdges) != len(fromScratch) {
		t.Fatalf("closure covers %d preds, want %d", len(gotEdges), len(fromScratch))
	}
}

func TestUpdateStatsBreakdown(t *testing.T) {
	_, m := open(t, Options{})
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	st := commitRules(t, m,
		"a(X, Y) :- b(X, Y).",
		"b(X, Y) :- e(X, Y).",
	)
	if st.Store <= 0 || st.TC <= 0 {
		t.Fatalf("breakdown missing: %+v", st)
	}
	if st.TCEdges != 3 { // a->{b,e}, b->{e}
		t.Fatalf("TCEdges = %d", st.TCEdges)
	}
}

func TestNoIndexesOption(t *testing.T) {
	d, m := open(t, Options{NoIndexes: true})
	if d.Catalog().Index("rulesource_head") != nil {
		t.Fatal("index created despite NoIndexes")
	}
	m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
	commitRules(t, m, "p(X, Y) :- e(X, Y).")
	rules, err := m.ExtractRelevant([]string{"p"})
	if err != nil || len(rules) != 1 {
		t.Fatalf("extraction without indexes: %d rules, %v", len(rules), err)
	}
}

// buildGraph computes reachability per pred from a rule list (test
// reference implementation, independent of pcg).
func buildGraph(rules []dlog.Clause) map[string]map[string]bool {
	dep := make(map[string]map[string]bool)
	for _, c := range rules {
		if dep[c.Head.Pred] == nil {
			dep[c.Head.Pred] = make(map[string]bool)
		}
		for _, a := range c.Body {
			dep[c.Head.Pred][a.Pred] = true
		}
	}
	out := make(map[string]map[string]bool)
	for p := range dep {
		reach := make(map[string]bool)
		var stack []string
		for q := range dep[p] {
			stack = append(stack, q)
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[q] {
				continue
			}
			reach[q] = true
			for z := range dep[q] {
				stack = append(stack, z)
			}
		}
		out[p] = reach
	}
	return out
}

// chainRules returns n independent chains of five predicates each over
// the base predicate e: c<i>_0 :- c<i>_1, ..., c<i>_4 :- e.
func chainRules(n int) []dlog.Clause {
	var rules []dlog.Clause
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			body := fmt.Sprintf("c%d_%d(X, Y)", i, j+1)
			if j == 4 {
				body = "e(X, Y)"
			}
			rules = append(rules, clause(fmt.Sprintf("c%d_%d(X, Y) :- %s.", i, j, body)))
		}
	}
	return rules
}

// tableIO is the traffic one relation has seen: heap records decoded by
// whole-file scans, point reads, writes, and B+tree descents over all
// its indexes.
type tableIO struct{ scanned, reads, inserts, deletes, descents int64 }

func ioOf(d *db.DB, table string) tableIO {
	t := d.Catalog().Table(table)
	h := t.Heap.Stats()
	io := tableIO{scanned: h.RecsScanned, reads: h.Reads, inserts: h.Inserts, deletes: h.Deletes}
	for _, idx := range t.Indexes {
		io.descents += idx.Stats().Searches
	}
	return io
}

func (a tableIO) sub(b tableIO) tableIO {
	return tableIO{a.scanned - b.scanned, a.reads - b.reads, a.inserts - b.inserts, a.deletes - b.deletes, a.descents - b.descents}
}

// TestUpdateIOIndependentOfRuleBaseSize pins the paper's Test 8 claim
// (t_u insensitive to R_s) in counts: committing one more rule for a
// mid-chain predicate touches the same records of every system
// relation, descent for descent, whether 10 or 400 chains are stored —
// the closure rows of the updated head are found, replaced and
// propagated upstream through reachablepreds' indexes alone.
func TestUpdateIOIndependentOfRuleBaseSize(t *testing.T) {
	tables := []string{TabReachablePreds, TabRuleSource, TabIDBRels, TabIDBCols, TabEDBCols}
	updateIO := func(chains int) map[string]tableIO {
		d, m := open(t, Options{})
		m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
		if _, err := m.Update(chainRules(chains)); err != nil {
			t.Fatal(err)
		}
		before := map[string]tableIO{}
		for _, tab := range tables {
			before[tab] = ioOf(d, tab)
		}
		st := commitRules(t, m, "c0_2(X, Y) :- e(X, Y).")
		if st.TCEdges == 0 {
			t.Fatal("update wrote no closure edges")
		}
		out := map[string]tableIO{}
		for _, tab := range tables {
			out[tab] = ioOf(d, tab).sub(before[tab])
		}
		return out
	}
	small, big := updateIO(10), updateIO(400)
	for _, tab := range tables {
		if small[tab] != big[tab] {
			t.Errorf("%s: I/O of a one-rule update grew with the rule base: 10 chains %+v, 400 chains %+v", tab, small[tab], big[tab])
		}
	}
	rp := small[TabReachablePreds]
	if rp.scanned != 0 || rp.descents == 0 || rp.deletes != 3 || rp.inserts != 3 {
		t.Errorf("reachablepreds not maintained through its indexes alone (c0_2's 3 edges replaced): %+v", rp)
	}
}

// TestBulkUpdateIOLinearInRules: what one Update loading whole chains
// does to reachablepreds grows by the same I/O per chain from 20 to 40
// chains as from 20 to 200, and never scans the relation.
func TestBulkUpdateIOLinearInRules(t *testing.T) {
	bulkIO := func(chains int) tableIO {
		d, m := open(t, Options{})
		m.InsertFact("e", rel.Tuple{rel.NewString("a"), rel.NewString("b")})
		before := ioOf(d, TabReachablePreds)
		if _, err := m.Update(chainRules(chains)); err != nil {
			t.Fatal(err)
		}
		return ioOf(d, TabReachablePreds).sub(before)
	}
	a, b, c := bulkIO(20), bulkIO(40), bulkIO(200)
	step := b.sub(a) // 20 chains' worth
	want := tableIO{0, 9 * step.reads, 9 * step.inserts, 9 * step.deletes, 9 * step.descents}
	if c.scanned != 0 || step.inserts == 0 || c.sub(a) != want {
		t.Errorf("reachablepreds I/O of a bulk update: 20 chains %+v, 40 chains %+v, 200 chains %+v; want 9 steps of %+v above the first and no scan", a, b, c, step)
	}
}

// TestDeclaredFootprints measures the footprints the package declares:
// the existing relations whose heap insert or delete counters move are
// exactly UpdateFootprint during an Update that adds a recursive
// predicate, and exactly NewFactFootprint during the first InsertFacts
// of a predicate.
func TestDeclaredFootprints(t *testing.T) {
	d, m := open(t, Options{})
	written := func(write func() error) string {
		t.Helper()
		before := map[string]tableIO{}
		for _, name := range d.Catalog().Tables() {
			before[name] = ioOf(d, name)
		}
		if err := write(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for name, io := range before {
			if dt := ioOf(d, name).sub(io); dt.inserts != 0 || dt.deletes != 0 {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	declared := func(tables []string) string {
		sorted := append([]string(nil), tables...)
		sort.Strings(sorted)
		return strings.Join(sorted, ",")
	}
	got := written(func() error {
		return m.InsertFacts("parent", []rel.Tuple{{rel.NewString("a"), rel.NewString("b")}})
	})
	if want := declared(NewFactFootprint); got != want {
		t.Errorf("first InsertFacts wrote %s, NewFactFootprint declares %s", got, want)
	}
	got = written(func() error {
		_, err := m.Update([]dlog.Clause{
			clause("ancestor(X, Y) :- parent(X, Y)."),
			clause("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."),
		})
		return err
	})
	if want := declared(UpdateFootprint); got != want {
		t.Errorf("Update wrote %s, UpdateFootprint declares %s", got, want)
	}
}
