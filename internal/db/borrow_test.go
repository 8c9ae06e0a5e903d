package db

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/exec"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// scan reports whether op, under the Filter of its predicates, is a
// table scan.
func scan(op exec.Operator) bool {
	if f, ok := op.(*exec.Filter); ok {
		op = f.Input
	}
	_, ok := op.(*exec.SeqScan)
	return ok
}

// shapes records in seen the places in op's tree where one operator
// keeps or passes on another's records: a hash join's build side
// (copied into its arena) and probe side (read in place), an index
// join's outer side (read in place while the inner records are read), a
// nested-loop join's right side (copied), UNION ALL's inputs (passed
// on), a Project's scan (read in place) and a Project under a
// deduplicating set operation (copied into the set).
func shapes(op exec.Operator, seen map[string]int) {
	switch o := op.(type) {
	case *exec.Project:
		if scan(o.Input) {
			seen["project input"]++
		}
		shapes(o.Input, seen)
	case *exec.Filter:
		shapes(o.Input, seen)
	case *exec.Distinct:
		shapes(o.Input, seen)
	case *exec.HashJoin:
		build, probe := o.Right, o.Left
		if o.BuildLeft {
			build, probe = probe, build
		}
		seen["hash build side"]++
		if scan(probe) {
			seen["probe side"]++
		}
		shapes(build, seen)
		shapes(probe, seen)
	case *exec.IndexNLJoin:
		seen["index join outer side"]++
		shapes(o.Left, seen)
	case *exec.NLJoin:
		seen["nested-loop right side"]++
		shapes(o.Left, seen)
		shapes(o.Right, seen)
	case *exec.SetOpExec:
		if o.Kind == exec.OpUnionAll {
			seen["union all"]++
		} else if _, ok := o.Left.(*exec.Project); ok {
			seen["projected set input"]++
		}
		shapes(o.Left, seen)
		shapes(o.Right, seen)
	case *exec.CountStar:
		shapes(o.Input, seen)
	}
}

// TestBorrowedRowsNeverKept: records pass through an operator tree in
// buffers each operator writes over — a page while it is pinned, a
// join's or a projection's output record — so whatever an operator or
// a statement keeps it must copy. Each statement below has a consumer
// that keeps records over a producer that reuses one buffer — so every
// kept row would read as the last one written, or a scan's as the last
// page read — and many rows through it, from tables whose rows lie on
// three heap pages or more. Its answer, run as text and prepared, must
// be the brute-force one. The prepared statement then runs a second
// time, on its kept tree, after rows were added to every table: its
// answer is the new brute-force one, and the rows the first execution
// returned still read as the old.
func TestBorrowedRowsNeverKept(t *testing.T) {
	type edge struct{ s, d int64 }
	r := rand.New(rand.NewSource(7))
	gen := func(n, k int) []edge {
		es := make([]edge, n)
		for i := range es {
			es[i] = edge{r.Int63n(int64(k)), r.Int63n(int64(k))}
		}
		return es
	}
	// x is wide and shallow — two rows a key — so that both of its
	// joins are index joins.
	a, b, x := gen(8, 10), gen(60, 10), gen(200, 100)
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE a (s INTEGER, d INTEGER)",
		"CREATE TABLE b (s INTEGER, d INTEGER)",
		"CREATE TABLE x (s INTEGER, d INTEGER)",
		"CREATE INDEX x_s ON x (s)")
	// Filler rows after each row, deleted once all are in, spread a
	// table's rows over three pages or more: a page holds fewer than 256
	// records of two integers.
	filler := rel.Tuple{rel.NewInt(-1), rel.NewInt(-1)}
	for name, es := range map[string][]edge{"a": a, "b": b, "x": x} {
		tab := d.Table(name)
		for _, e := range es {
			if _, err := tab.Insert(rel.Tuple{rel.NewInt(e.s), rel.NewInt(e.d)}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3*256/len(es); k++ {
				if _, err := tab.Insert(filler); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustExec(t, d, "DELETE FROM "+name+" WHERE s < 0")
		if n := heapPages(t, tab); n < 3 {
			t.Fatalf("table %s lies on %d heap pages, want 3 or more", name, n)
		}
	}
	row := func(vs ...int64) string {
		var parts []string
		for _, v := range vs {
			parts = append(parts, fmt.Sprint(v))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	// chain is a ⋈ p ⋈ q on a.d = p.s, p.d = q.s, projected to (a.s,
	// q.d), with p and q both over pq.
	chain := func(pq []edge) (out []string) {
		for _, e := range a {
			for _, p := range pq {
				for _, q := range pq {
					if e.d == p.s && p.d == q.s {
						out = append(out, row(e.s, q.d))
					}
				}
			}
		}
		return out
	}
	pairs := func(l, r []edge, on func(l, r edge) bool, proj func(l, r edge) string) (out []string) {
		for _, e := range l {
			for _, f := range r {
				if on(e, f) {
					out = append(out, proj(e, f))
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		shape, stmt string
		want        func() []string
	}{
		{"hash build side", "SELECT a.s, q.d FROM a, b p, b q WHERE a.d = p.s AND p.d = q.s",
			func() []string { return chain(b) }},
		{"index join outer side", "SELECT a.s, q.d FROM a, x p, x q WHERE a.d = p.s AND p.d = q.s",
			func() []string { return chain(x) }},
		{"nested-loop right side", "SELECT a.s, p.d FROM a, b p WHERE a.s < p.d", func() []string {
			return pairs(a, b, func(l, r edge) bool { return l.s < r.d }, func(l, r edge) string { return row(l.s, r.d) })
		}},
		{"union all", "SELECT a.s, p.d FROM a, b p WHERE a.d = p.s UNION ALL SELECT p.s, a.d FROM a, b p WHERE a.s = p.d", func() []string {
			return append(
				pairs(a, b, func(l, r edge) bool { return l.d == r.s }, func(l, r edge) string { return row(l.s, r.d) }),
				pairs(a, b, func(l, r edge) bool { return l.s == r.d }, func(l, r edge) string { return row(r.s, l.d) })...)
		}},
		// Records read in place: the join copies each probe record into
		// its output, the projection each input record, the EXCEPT what
		// it reads.
		{"probe side", "SELECT p.s, a.d FROM b p, a WHERE p.d = a.s", func() []string {
			return pairs(b, a, func(l, r edge) bool { return l.d == r.s }, func(l, r edge) string { return row(l.s, r.d) })
		}},
		{"project input", "SELECT d, s FROM x WHERE d > 40", func() []string {
			var out []string
			for _, e := range x {
				if e.d > 40 {
					out = append(out, row(e.d, e.s))
				}
			}
			return out
		}},
		{"projected set input", "SELECT a.s, p.d FROM a, b p WHERE a.d = p.s EXCEPT SELECT * FROM a", func() []string {
			in := map[string]bool{}
			for _, e := range a {
				in[row(e.s, e.d)] = true
			}
			var out []string
			for _, s := range pairs(a, b, func(l, r edge) bool { return l.d == r.s }, func(l, r edge) string { return row(l.s, r.d) }) {
				if !in[s] {
					out = append(out, s)
					in[s] = true
				}
			}
			return out
		}},
	} {
		want := tc.want()
		sort.Strings(want)
		if len(want) < 4 {
			t.Fatalf("%s: %d rows, too few to show a reused buffer", tc.stmt, len(want))
		}
		st, err := sql.Parse(tc.stmt)
		if err != nil {
			t.Fatal(err)
		}
		op, err := plan.BuildSelect(d, st.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		shapes(op, seen)
		if seen[tc.shape] == 0 {
			t.Errorf("%s: the plan has no %s: %v", tc.stmt, tc.shape, seen)
		}
		text := rowStrings(mustQuery(t, d, tc.stmt))
		stmt := mustPrepare(t, d, tc.stmt)
		first, err := stmt.Query(context.Background(), d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prepared := rowStrings(first)
		if w := strings.Join(want, " "); strings.Join(text, " ") != w || strings.Join(prepared, " ") != w {
			t.Errorf("%s:\ntext     %v\nprepared %v\nwant     %v", tc.stmt, text, prepared, want)
		}

		// A few more rows a table: the planner decides as before, and the
		// second execution runs over the first one's working memory.
		for _, tab := range []struct {
			name  string
			es    *[]edge
			width int
		}{{"a", &a, 10}, {"b", &b, 10}, {"x", &x, 100}} {
			for _, e := range gen(len(*tab.es)/8+1, tab.width) {
				mustExec(t, d, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", tab.name, e.s, e.d))
				*tab.es = append(*tab.es, e)
			}
		}
		want2 := tc.want()
		sort.Strings(want2)
		reuses := d.StatsSnapshot().Reuses
		second, err := stmt.Query(context.Background(), d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.StatsSnapshot().Reuses == reuses {
			t.Errorf("%s: the second execution did not re-bind the kept tree", tc.stmt)
		}
		if got, w := strings.Join(rowStrings(second), " "), strings.Join(want2, " "); got != w {
			t.Errorf("%s, second execution:\ngot  %v\nwant %v", tc.stmt, got, w)
		}
		if got, w := strings.Join(rowStrings(first), " "), strings.Join(want, " "); got != w {
			t.Errorf("%s: the first execution's rows became\n%v\nafter the second, were\n%v", tc.stmt, got, w)
		}
	}
}

// TestSetOfUntypedValueIsAnError: a set holds stored records, and a
// value of no type is keyed as an empty string, which does not decode
// under the column's type. Reading the set back is then a typed error
// from the statement, never a panic. No planned statement can produce
// one (TestProjectionIsTyped in internal/plan); this stores one
// directly, for a UNION to read into its set.
func TestSetOfUntypedValueIsAnError(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d, "CREATE TABLE u (a INTEGER)", "CREATE TABLE v (a INTEGER)", "INSERT INTO u VALUES (1)")
	if err := d.Table("u").InsertRecord(rel.Tuple{rel.Value{}}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	_, err := mustPrepare(t, d, "SELECT * FROM u UNION SELECT * FROM v").Query(context.Background(), d, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "db: result set of") {
		t.Errorf("Query: %v, want the set's decoding error", err)
	}
}
