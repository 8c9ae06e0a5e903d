package plan

import (
	"fmt"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

func setup(t testing.TB) *catalog.Catalog {
	t.Helper()
	c, err := catalog.Open(storage.NewMemPager(1024))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func addTable(t testing.TB, c *catalog.Catalog, name string, rows int) *catalog.Table {
	t.Helper()
	tb, err := c.CreateTable(name, rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt},
		rel.Column{Name: "b", Type: rel.TypeInt},
	), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func build(t testing.TB, c *catalog.Catalog, q string) exec.Operator {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildSelect(c, st.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// unwrap strips Project/Filter/Distinct to reach the join/scan spine.
func unwrap(op exec.Operator) exec.Operator {
	for {
		switch v := op.(type) {
		case *exec.Project:
			op = v.Input
		case *exec.Filter:
			op = v.Input
		case *exec.Distinct:
			op = v.Input
		default:
			return op
		}
	}
}

func TestPlanUsesIndexScanForLiteralEquality(t *testing.T) {
	c := setup(t)
	addTable(t, c, "e", 100)
	if _, err := c.CreateIndex("e_a", "e", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	op := unwrap(build(t, c, "SELECT b FROM e WHERE a = 5"))
	if _, ok := op.(*exec.IndexScan); !ok {
		t.Fatalf("expected IndexScan, got %T", op)
	}
	// Without a usable index: SeqScan under the filter.
	op2 := unwrap(build(t, c, "SELECT a FROM e WHERE b = 5"))
	if _, ok := op2.(*exec.SeqScan); !ok {
		t.Fatalf("expected SeqScan, got %T", op2)
	}
}

func TestPlanIndexJoinWhenProbesAreCheaper(t *testing.T) {
	// 5 probes of fan-out 1 against hashing 500 rows.
	c := setup(t)
	addTable(t, c, "small", 5)
	addTable(t, c, "big", 500)
	if _, err := c.CreateIndex("big_a", "big", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	op := unwrap(build(t, c, "SELECT s.b FROM small s, big g WHERE s.a = g.a"))
	if _, ok := op.(*exec.IndexNLJoin); !ok {
		t.Fatalf("expected IndexNLJoin, got %T", op)
	}
}

func TestPlanHashJoinWhenNoIndex(t *testing.T) {
	c := setup(t)
	addTable(t, c, "small", 5)
	addTable(t, c, "big", 500)
	op := unwrap(build(t, c, "SELECT s.b FROM small s, big g WHERE s.a = g.a"))
	j, ok := op.(*exec.HashJoin)
	if !ok {
		t.Fatalf("expected HashJoin, got %T", op)
	}
	// The hash table goes on the smaller input whichever side it is.
	left := unwrap(j.Left).(*exec.SeqScan).Table
	if (left.Name == "small") != j.BuildLeft {
		t.Fatalf("left input %s, BuildLeft=%v: hash table built on the larger input", left.Name, j.BuildLeft)
	}
}

func TestPlanHashJoinWhenFanOutIsHigh(t *testing.T) {
	// big.b has 10 distinct values: 100 probes would fetch 50 rows each,
	// ten times the 500 + 100 rows of a hash join.
	c := setup(t)
	addTable(t, c, "mid", 100)
	addTable(t, c, "big", 500)
	if _, err := c.CreateIndex("big_b", "big", []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	op := unwrap(build(t, c, "SELECT m.a FROM mid m, big g WHERE m.b = g.b"))
	if _, ok := op.(*exec.HashJoin); !ok {
		t.Fatalf("expected HashJoin, got %T", op)
	}
}

// TestPlanJoinsThroughTheMagicSet is the plan decision magic sets rest
// on: in the modified rule's statement the delta's only join edge
// reaches the base relation on its un-indexed column, so the order must
// start at the magic set, probe the base relation's index, and hash the
// delta last — never scan the base relation.
func TestPlanJoinsThroughTheMagicSet(t *testing.T) {
	c := setup(t)
	addTable(t, c, "parent", 5000)
	if _, err := c.CreateIndex("parent_a", "parent", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	addTable(t, c, "magic", 7)
	addTable(t, c, "delta", 2)
	op := unwrap(build(t, c, "SELECT DISTINCT m.a, d.b FROM magic m, parent p, delta d WHERE m.a = p.a AND p.b = d.a"))
	top, ok := op.(*exec.HashJoin)
	if !ok {
		t.Fatalf("expected HashJoin on top, got %T", op)
	}
	probe, ok := top.Left.(*exec.IndexNLJoin)
	if !ok || probe.Right.Name != "parent" {
		t.Fatalf("expected an index join into parent under the hash join, got %T", top.Left)
	}
	if start, ok := probe.Left.(*exec.SeqScan); !ok || start.Table.Name != "magic" {
		t.Fatalf("expected the order to start at the magic set, got %T", probe.Left)
	}
	if d, ok := top.Right.(*exec.SeqScan); !ok || d.Table.Name != "delta" || top.BuildLeft {
		t.Fatalf("expected the 2-row delta as the hash join's build side")
	}
	// Estimates ride on the operators: 7 probes × 1 row, then ≤ 2 rows.
	if probe.Est != 7 || top.Est != 2 {
		t.Fatalf("estimates %v / %v, want 7 / 2", probe.Est, top.Est)
	}
}

func TestPlanStartsFromFilteredTable(t *testing.T) {
	// Even though big has 100x the rows, the literal-equality filter on
	// its indexed column makes it the cheapest start — the estimate
	// must use the posting count, not the raw size.
	c := setup(t)
	addTable(t, c, "mid", 50)
	addTable(t, c, "big", 500)
	if _, err := c.CreateIndex("big_a", "big", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	op := unwrap(build(t, c, "SELECT m.b FROM mid m, big g WHERE g.a = 5 AND g.b = m.a"))
	// Plan shape: join with big's access path on the LEFT (it is the
	// start table). The left side of the join chain is an IndexScan.
	switch j := op.(type) {
	case *exec.HashJoin:
		if _, ok := unwrap(j.Left).(*exec.IndexScan); !ok {
			t.Fatalf("expected IndexScan start, got %T", unwrap(j.Left))
		}
	case *exec.IndexNLJoin:
		if _, ok := unwrap(j.Left).(*exec.IndexScan); !ok {
			t.Fatalf("expected IndexScan start, got %T", unwrap(j.Left))
		}
	default:
		t.Fatalf("unexpected join %T", op)
	}
}

func TestPlanCrossJoinFallback(t *testing.T) {
	c := setup(t)
	addTable(t, c, "x1", 3)
	addTable(t, c, "x2", 3)
	op := unwrap(build(t, c, "SELECT * FROM x1, x2"))
	if _, ok := op.(*exec.NLJoin); !ok {
		t.Fatalf("expected NLJoin, got %T", op)
	}
}

func TestPlanResultsIdenticalAcrossJoinStrategies(t *testing.T) {
	// The same query over identical data, with and without the index
	// that flips the join strategy, must agree.
	run := func(withIndex bool) map[string]bool {
		c := setup(t)
		addTable(t, c, "small", 8)
		addTable(t, c, "big", 300)
		if withIndex {
			if _, err := c.CreateIndex("big_a", "big", []string{"a"}, false); err != nil {
				t.Fatal(err)
			}
		}
		op := build(t, c, "SELECT s.a, g.b FROM small s, big g WHERE s.a = g.a")
		rows, err := collectOwned(op)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, tu := range rows {
			out[tu.String()] = true
		}
		return out
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("row sets differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("missing row %s", k)
		}
	}
}

func TestPlanManyTablesChain(t *testing.T) {
	// A 5-way chain join must produce a correct plan whatever order the
	// cost model picks.
	c := setup(t)
	for i := 0; i < 5; i++ {
		addTable(t, c, fmt.Sprintf("t%d", i), 30+10*i)
	}
	q := "SELECT t0.a FROM t0, t1, t2, t3, t4 WHERE t0.b = t1.b AND t1.b = t2.b AND t2.b = t3.b AND t3.b = t4.b AND t0.a = 3"
	rows, err := collectOwned(build(t, c, q))
	if err != nil {
		t.Fatal(err)
	}
	// b = 3%10 = 3 for t0.a=3; each table has rows with b=3: t_i has
	// (30+10i)/10 = 3+i such rows. Join count = 1 * 4 * 5 * 6 * 7.
	if want := 4 * 5 * 6 * 7; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

// BenchmarkBuildSelect times planning alone on the statement shapes an
// LFP round issues: an exit rule, a delta rule, a magic-modified rule.
func BenchmarkBuildSelect(b *testing.B) {
	c := setup(b)
	addTable(b, c, "d", 0)
	addTable(b, c, "e", 500)
	addTable(b, c, "m", 0)
	if _, err := c.CreateIndex("e_a", "e", []string{"a"}, false); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, text string }{
		{"one", "SELECT DISTINCT e.a, e.b FROM e"},
		{"two", "SELECT DISTINCT e.a, d.b FROM e, d WHERE e.b = d.a"},
		{"three", "SELECT DISTINCT e.a, d.b FROM m, e, d WHERE m.a = e.a AND e.b = d.a"},
	} {
		st, err := sql.Parse(q.text)
		if err != nil {
			b.Fatal(err)
		}
		sel := st.(*sql.Select)
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildSelect(c, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestProjectionIsTyped: every value a Project emits has the type the
// storage encoding carries — the set it may feed keeps rows as stored
// records, and a value of no type would be keyed as an empty string
// that does not decode. Columns carry their table's type and literals
// the lexer's; a value parameter in the select list, and a column of
// no storable type, are refused at Prepare. A literal or a bound value
// parameter compared with a column in a Filter has the column's type.
func TestProjectionIsTyped(t *testing.T) {
	c := setup(t)
	addTable(t, c, "t", 4)
	if _, err := c.CreateTable("s", rel.MustSchema(
		rel.Column{Name: "n", Type: rel.TypeString},
		rel.Column{Name: "u", Type: rel.TypeUnknown},
	), false); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		vals []rel.Value
	}{
		{"SELECT a, 7, 'x' FROM t", nil},
		{"SELECT * FROM t x, t y WHERE x.a = y.b", nil},
		{"SELECT t.b, s.n, 'k' AS tag FROM t, s", nil},
		{"SELECT a, 1 FROM t WHERE b = 2 EXCEPT SELECT b, a FROM t", nil},
		{"SELECT t.a, s.n FROM t, s WHERE t.b = ?1 AND s.n <> ?2 AND t.a > 0", []rel.Value{rel.NewInt(2), rel.NewString("x")}},
	} {
		q, params := tc.q, 0
		// leaf checks that a literal or parameter has the type of the
		// column it stands beside.
		leaf := func(e exec.Scalar, ty rel.Type) {
			switch k := e.(type) {
			case exec.Const:
				if k.Val.Kind != ty {
					t.Errorf("%s: constant %v under a %v column", q, k.Val, ty)
				}
			case exec.Param:
				params++
				if k.Val.Kind != ty || k.Type() != ty {
					t.Errorf("%s: parameter bound to %v under a %v column", q, *k.Val, ty)
				}
			}
		}
		var pred func(p exec.Pred)
		pred = func(p exec.Pred) {
			switch v := p.(type) {
			case exec.AndP:
				for _, c := range v.Preds {
					pred(c)
				}
			case exec.Cmp:
				if col, ok := v.Left.(exec.Col); ok {
					leaf(v.Right, col.Ty)
				}
				if col, ok := v.Right.(exec.Col); ok {
					leaf(v.Left, col.Ty)
				}
			}
		}
		var walk func(op exec.Operator)
		walk = func(op exec.Operator) {
			switch o := op.(type) {
			case *exec.Project:
				for i, e := range o.Exprs {
					ty := o.Out.Col(i).Type
					if ty != rel.TypeInt && ty != rel.TypeString {
						t.Errorf("%s: output column %d has type %v", q, i, ty)
					}
					leaf(e, ty)
				}
				walk(o.Input)
			case *exec.Filter:
				pred(o.Pred)
				walk(o.Input)
			case *exec.HashJoin:
				walk(o.Left)
				walk(o.Right)
			case *exec.NLJoin:
				walk(o.Left)
				walk(o.Right)
			case *exec.SetOpExec:
				walk(o.Left)
				walk(o.Right)
			}
		}
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(c, st.(*sql.Select), nil)
		if err != nil {
			t.Fatal(err)
		}
		op, err := p.Build(c, nil, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		walk(op)
		if params != len(tc.vals) {
			t.Errorf("%s: %d parameters in the plan's filters, want %d", q, params, len(tc.vals))
		}
	}
	for _, q := range []string{"SELECT u FROM s", "SELECT n, u FROM s", "SELECT * FROM s x, s y"} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Prepare(c, st.(*sql.Select), nil); err == nil {
			t.Errorf("%s: prepared a projection of an untyped column", q)
		}
	}
}
