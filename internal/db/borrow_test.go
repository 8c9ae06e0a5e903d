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

// borrowed reports whether the planner marked op Borrowed.
func borrowed(op exec.Operator) bool {
	switch o := op.(type) {
	case *exec.Project:
		return o.Borrowed
	case *exec.HashJoin:
		return o.Borrowed
	case *exec.IndexNLJoin:
		return o.Borrowed
	case *exec.NLJoin:
		return o.Borrowed
	case *exec.SeqScan:
		return o.Borrowed
	}
	return false
}

// lendable reports whether op, under the Filter of its predicates, is a
// producer that could lend its rows: a join, which builds them in a
// buffer, or a table scan, which decodes them into a block.
func lendable(op exec.Operator) bool {
	if f, ok := op.(*exec.Filter); ok {
		op = f.Input
	}
	switch op.(type) {
	case *exec.HashJoin, *exec.IndexNLJoin, *exec.NLJoin, *exec.SeqScan:
		return true
	}
	return false
}

// lentScan reports whether op, under the Filter of its predicates, is a
// table scan marked Borrowed.
func lentScan(op exec.Operator) bool {
	if f, ok := op.(*exec.Filter); ok {
		op = f.Input
	}
	scan, ok := op.(*exec.SeqScan)
	return ok && scan.Borrowed
}

// borrowWalk checks op's tree: a Borrowed producer is allowed only where
// its consumer copies each row before it asks for the next (copies): a
// Project's input, a hash join's probe side, a deduplicating set
// operation's inputs, COUNT(*)'s input. Every consumer that keeps rows
// passes false: a hash join's build side, an index join's outer input,
// both inputs of a nested-loop join, UNION ALL's inputs, and the
// statement's result. It records the consumers it met in seen.
func borrowWalk(t *testing.T, stmt string, op exec.Operator, copies bool, seen map[string]int) {
	t.Helper()
	if borrowed(op) {
		seen["borrowed"]++
		if !copies {
			t.Errorf("%s: %T is Borrowed under a consumer that keeps its rows", stmt, op)
		}
	}
	switch o := op.(type) {
	case *exec.Project:
		if lentScan(o.Input) {
			seen["lent project input"]++
		}
		borrowWalk(t, stmt, o.Input, true, seen)
	case *exec.Filter:
		borrowWalk(t, stmt, o.Input, copies, seen)
	case *exec.Distinct:
		borrowWalk(t, stmt, o.Input, copies, seen)
	case *exec.HashJoin:
		build, probe := o.Right, o.Left
		if o.BuildLeft {
			build, probe = probe, build
		}
		if lendable(build) {
			seen["hash build side"]++
		}
		if lentScan(probe) {
			seen["lent probe side"]++
		}
		borrowWalk(t, stmt, build, false, seen)
		borrowWalk(t, stmt, probe, true, seen)
	case *exec.IndexNLJoin:
		if lendable(o.Left) {
			seen["index join outer side"]++
		}
		borrowWalk(t, stmt, o.Left, false, seen)
	case *exec.NLJoin:
		seen["nested-loop right side"]++
		borrowWalk(t, stmt, o.Left, false, seen)
		borrowWalk(t, stmt, o.Right, false, seen)
	case *exec.SetOpExec:
		dedup := o.Kind != exec.OpUnionAll
		if !dedup {
			seen["union all"]++
		}
		borrowWalk(t, stmt, o.Left, dedup, seen)
		borrowWalk(t, stmt, o.Right, dedup, seen)
	case *exec.CountStar:
		borrowWalk(t, stmt, o.Input, true, seen)
	}
}

// TestBorrowedRowsNeverKept: the planner lends a producer's buffer only
// to a consumer that copies each row before asking for the next. Each
// statement below has a consumer that keeps rows over a producer that
// would reuse one buffer if it were marked Borrowed — so every kept row
// would read as the last one written, or a scan's rows as the last page
// decoded — and many rows through it, from tables whose rows lie on
// three heap pages or more. Its plan must mark nothing under that
// consumer, and its answer, run as text and prepared, must be the
// brute-force one; so must the answers of the lent scans, a hash join's
// probe side and a Project's input, whose rows cross page boundaries.
// The prepared statement then runs a second time, on its kept tree,
// after rows were added to every table: its answer is the new
// brute-force one, and the rows the first execution returned still read
// as the old.
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
		// The lending cases. The join copies each probe row, the
		// projection each input row, the EXCEPT what it reads.
		{"lent probe side", "SELECT p.s, a.d FROM b p, a WHERE p.d = a.s", func() []string {
			return pairs(b, a, func(l, r edge) bool { return l.d == r.s }, func(l, r edge) string { return row(l.s, r.d) })
		}},
		{"lent project input", "SELECT d, s FROM x WHERE d > 40", func() []string {
			var out []string
			for _, e := range x {
				if e.d > 40 {
					out = append(out, row(e.d, e.s))
				}
			}
			return out
		}},
		{"borrowed", "SELECT a.s, p.d FROM a, b p WHERE a.d = p.s EXCEPT SELECT * FROM a", func() []string {
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
		borrowWalk(t, tc.stmt, op, false, seen)
		if seen[tc.shape] == 0 {
			t.Errorf("%s: the plan has no %s: %v", tc.stmt, tc.shape, seen)
		}
		text := rowStrings(mustQuery(t, d, tc.stmt))
		stmt := mustPrepare(t, d, tc.stmt)
		first, err := stmt.Query(context.Background(), nil, nil)
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
		second, err := stmt.Query(context.Background(), nil, nil)
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
// one (TestProjectionIsTyped in internal/plan); this feeds it directly.
func TestSetOfUntypedValueIsAnError(t *testing.T) {
	ints := rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeInt})
	set := func() exec.Operator {
		return &exec.SetOpExec{Kind: exec.OpUnion,
			Left:  &exec.Values{Rows: []rel.Tuple{{rel.NewInt(1)}, {rel.Value{}}}, Out: ints},
			Right: &exec.Values{Out: ints}}
	}
	if _, err := exec.CollectOwned(context.Background(), set()); err == nil || !strings.Contains(err.Error(), "exec: set of") {
		t.Errorf("CollectOwned: %v, want the set's decoding error", err)
	}
	if err := set().Open(); err == nil {
		t.Error("Open succeeded over an undecodable set")
	}
}
