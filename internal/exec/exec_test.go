package exec

import (
	"fmt"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// newTable creates a table with (a INTEGER, b INTEGER) rows from pairs.
func newTable(t *testing.T, c *catalog.Catalog, name string, pairs [][2]int64) *catalog.Table {
	t.Helper()
	tb, err := c.CreateTable(name, rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt},
		rel.Column{Name: "b", Type: rel.TypeInt},
	), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(p[0]), rel.NewInt(p[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func cat(t *testing.T) *catalog.Catalog {
	t.Helper()
	c, err := catalog.Open(storage.NewMemPager(256))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func collect(t *testing.T, op Operator) []rel.Tuple {
	t.Helper()
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSeqScanSnapshot(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 2}, {3, 4}})
	s := &SeqScan{Table: tb}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	// Insert after Open: must not be visible in this scan.
	if _, err := tb.Insert(rel.Tuple{rel.NewInt(5), rel.NewInt(6)}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		tu, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tu == nil {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("snapshot saw %d rows", n)
	}
	s.Close()
}

func TestIndexScan(t *testing.T) {
	c := cat(t)
	newTable(t, c, "e", [][2]int64{{1, 10}, {1, 11}, {2, 20}})
	idx, err := c.CreateIndex("e_a", "e", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, &IndexScan{Table: c.Table("e"), Index: idx, Key: rel.Tuple{rel.NewInt(1)}})
	if len(rows) != 2 {
		t.Fatalf("index scan found %d", len(rows))
	}
}

func TestFilterAndProject(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	f := &Filter{
		Input: &SeqScan{Table: tb},
		Pred:  Cmp{Op: sql.CmpGt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(1)}},
	}
	p := &Project{
		Input: f,
		Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}},
		Out:   rel.MustSchema(rel.Column{Name: "b", Type: rel.TypeInt}),
	}
	rows := collect(t, p)
	if len(rows) != 2 || rows[0][0].Int != 20 || rows[1][0].Int != 30 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoin(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{1, 2}, {3, 4}, {5, 6}})
	r := newTable(t, c, "r", [][2]int64{{2, 100}, {4, 200}, {9, 300}})
	// Either build side: same rows, left columns first.
	for _, buildLeft := range []bool{false, true} {
		j := &HashJoin{
			Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r},
			LeftOrds: []int{1}, RightOrds: []int{0},
			BuildLeft: buildLeft,
		}
		rows := collect(t, j)
		if len(rows) != 2 {
			t.Fatalf("BuildLeft=%v: join rows = %v", buildLeft, rows)
		}
		for _, tu := range rows {
			if tu[1].Int != tu[2].Int || tu[3].Int < 100 {
				t.Fatalf("BuildLeft=%v: join key or column order wrong: %v", buildLeft, tu)
			}
		}
		if j.Schema().Len() != 4 {
			t.Fatalf("join schema %v", j.Schema())
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{1, 2}, {3, 2}})
	r := newTable(t, c, "r", [][2]int64{{2, 100}})
	for _, buildLeft := range []bool{false, true} {
		j := &HashJoin{
			Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r},
			LeftOrds: []int{1}, RightOrds: []int{0},
			BuildLeft: buildLeft,
			Residual:  Cmp{Op: sql.CmpGt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(2)}},
		}
		rows := collect(t, j)
		if len(rows) != 1 || rows[0][0].Int != 3 {
			t.Fatalf("BuildLeft=%v: rows = %v", buildLeft, rows)
		}
	}
}

func TestNLJoinCross(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{1, 2}, {3, 4}})
	r := newTable(t, c, "r", [][2]int64{{5, 6}})
	j := &NLJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, Pred: True{}}
	rows := collect(t, j)
	if len(rows) != 2 {
		t.Fatalf("cross rows = %d", len(rows))
	}
}

func TestIndexNLJoin(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{0, 1}, {0, 2}, {0, 9}})
	newTable(t, c, "r", [][2]int64{{1, 100}, {2, 200}, {3, 300}})
	idx, err := c.CreateIndex("r_a", "r", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	j := &IndexNLJoin{
		Left:     &SeqScan{Table: l},
		Right:    c.Table("r"),
		Index:    idx,
		LeftOrds: []int{1},
	}
	rows := collect(t, j)
	if len(rows) != 2 {
		t.Fatalf("index join rows = %v", rows)
	}
	for _, tu := range rows {
		if tu[1].Int != tu[2].Int {
			t.Fatalf("key mismatch: %v", tu)
		}
	}
}

func TestIndexNLJoinMatchesHashJoin(t *testing.T) {
	c := cat(t)
	var pairsL, pairsR [][2]int64
	for i := int64(0); i < 60; i++ {
		pairsL = append(pairsL, [2]int64{i, i % 7})
		pairsR = append(pairsR, [2]int64{i % 7, i * 10})
	}
	l := newTable(t, c, "l", pairsL)
	newTable(t, c, "r", pairsR)
	idx, err := c.CreateIndex("r_a", "r", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	hj := &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: c.Table("r")}, LeftOrds: []int{1}, RightOrds: []int{0}}
	ij := &IndexNLJoin{Left: &SeqScan{Table: l}, Right: c.Table("r"), Index: idx, LeftOrds: []int{1}}
	a, b := collect(t, hj), collect(t, ij)
	if len(a) != len(b) {
		t.Fatalf("hash join %d rows, index join %d rows", len(a), len(b))
	}
	set := make(map[string]int)
	for _, tu := range a {
		set[tu.String()]++
	}
	for _, tu := range b {
		set[tu.String()]--
	}
	for k, v := range set {
		if v != 0 {
			t.Fatalf("multiset mismatch at %s (%+d)", k, v)
		}
	}
}

func TestDistinctOp(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 1}, {1, 1}, {2, 2}})
	rows := collect(t, &Distinct{Input: &SeqScan{Table: tb}})
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %v", rows)
	}
}

func TestSetOps(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{1, 1}, {2, 2}, {2, 2}})
	r := newTable(t, c, "r", [][2]int64{{2, 2}, {3, 3}})
	cases := []struct {
		kind SetOpKind
		want int
	}{
		{OpUnion, 3}, {OpUnionAll, 5}, {OpExcept, 1}, {OpIntersect, 1},
	}
	for _, cse := range cases {
		op := &SetOpExec{Kind: cse.kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
		rows := collect(t, op)
		if len(rows) != cse.want {
			t.Errorf("setop %d: %d rows, want %d", cse.kind, len(rows), cse.want)
		}
	}
}

func TestCountStarOp(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 1}, {2, 2}})
	rows := collect(t, &CountStar{Input: &SeqScan{Table: tb}})
	if len(rows) != 1 || rows[0][0].Int != 2 {
		t.Fatalf("count = %v", rows)
	}
}

func TestPredicates(t *testing.T) {
	tu := rel.Tuple{rel.NewInt(5), rel.NewString("x")}
	lt := Cmp{Op: sql.CmpLt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(10)}}
	eq := Cmp{Op: sql.CmpEq, Left: Col{Ord: 1, Ty: rel.TypeString}, Right: Const{Val: rel.NewString("x")}}
	if !lt.Holds(tu) || !eq.Holds(tu) {
		t.Fatal("basic comparisons")
	}
	if !(AndP{Preds: []Pred{lt, eq}}).Holds(tu) {
		t.Fatal("and")
	}
	if !(OrP{Left: NotP{Inner: lt}, Right: eq}).Holds(tu) {
		t.Fatal("or/not")
	}
	if (NotP{Inner: True{}}).Holds(tu) {
		t.Fatal("not true")
	}
}

func TestConjunctsRoundTrip(t *testing.T) {
	a := Cmp{Op: sql.CmpEq, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(1)}}
	b := Cmp{Op: sql.CmpEq, Left: Col{Ord: 1, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(2)}}
	all := ConjunctsOf(AndP{Preds: []Pred{a, AndP{Preds: []Pred{b}}}})
	if len(all) != 2 {
		t.Fatalf("conjuncts = %d", len(all))
	}
	if _, ok := AndOf(nil).(True); !ok {
		t.Fatal("empty AndOf should be True")
	}
	if _, ok := AndOf([]Pred{a}).(Cmp); !ok {
		t.Fatal("singleton AndOf should unwrap")
	}
}

func TestValuesOp(t *testing.T) {
	v := &Values{
		Rows: []rel.Tuple{{rel.NewInt(1)}, {rel.NewInt(2)}},
		Out:  rel.MustSchema(rel.Column{Name: "x", Type: rel.TypeInt}),
	}
	rows := collect(t, v)
	if len(rows) != 2 {
		t.Fatalf("values rows = %v", rows)
	}
}

func BenchmarkHashJoinVsIndexJoin(b *testing.B) {
	c, err := catalog.Open(storage.NewMemPager(4096))
	if err != nil {
		b.Fatal(err)
	}
	big, _ := c.CreateTable("big", rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt},
		rel.Column{Name: "b", Type: rel.TypeInt}), false)
	for i := int64(0); i < 50000; i++ {
		big.Insert(rel.Tuple{rel.NewInt(i), rel.NewInt(i)})
	}
	small, _ := c.CreateTable("small", rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt},
		rel.Column{Name: "b", Type: rel.TypeInt}), false)
	for i := int64(0); i < 10; i++ {
		small.Insert(rel.Tuple{rel.NewInt(i), rel.NewInt(i * 1000)})
	}
	idx, _ := c.CreateIndex("big_a", "big", []string{"a"}, false)

	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := &HashJoin{Left: &SeqScan{Table: small}, Right: &SeqScan{Table: big}, LeftOrds: []int{1}, RightOrds: []int{0}}
			if _, err := Collect(j); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := &IndexNLJoin{Left: &SeqScan{Table: small}, Right: big, Index: idx, LeftOrds: []int{1}}
			if _, err := Collect(j); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleRun() {
	c, _ := catalog.Open(storage.NewMemPager(64))
	tb, _ := c.CreateTable("e", rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeInt}), false)
	tb.Insert(rel.Tuple{rel.NewInt(7)})
	_ = Run(&SeqScan{Table: tb}, func(tu rel.Tuple) error {
		fmt.Println(tu)
		return nil
	})
	// Output: (7)
}

func TestInstrumentAttachesIO(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 40}})
	idx, err := c.CreateIndex("e_a", "e", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("query")
	op, flush := Instrument(&SeqScan{Table: tb}, tr.Root())
	if got := len(collect(t, op)); got != 4 {
		t.Fatalf("scan rows = %d", got)
	}
	flush()
	sp := tr.Root().Find("scan(e)")
	if sp == nil {
		t.Fatal("no scan span")
	}
	if v, ok := sp.Int("heap_pages"); !ok || v < 1 {
		t.Fatalf("heap_pages = %d, %v", v, ok)
	}
	if v, ok := sp.Int("heap_recs"); !ok || v != 4 {
		t.Fatalf("heap_recs = %d, %v (want 4)", v, ok)
	}
	if _, ok := sp.Int("pool_hits"); !ok {
		t.Fatal("scan span missing pool_hits")
	}
	if _, ok := sp.Int("pool_misses"); !ok {
		t.Fatal("scan span missing pool_misses")
	}

	// Index-driven access reports descents and point reads.
	tr2 := obs.NewTrace("query")
	op2, flush2 := Instrument(&IndexScan{Table: tb, Index: idx, Key: rel.Tuple{rel.NewInt(2)}}, tr2.Root())
	if got := len(collect(t, op2)); got != 2 {
		t.Fatalf("idxscan rows = %d", got)
	}
	flush2()
	sp2 := tr2.Root().Find("idxscan(e.e_a)")
	if sp2 == nil {
		t.Fatal("no idxscan span")
	}
	if v, ok := sp2.Int("heap_reads"); !ok || v != 2 {
		t.Fatalf("heap_reads = %d, %v (want 2)", v, ok)
	}
	if v, ok := sp2.Int("descents"); !ok || v < 1 {
		t.Fatalf("descents = %d, %v", v, ok)
	}

	// IndexNLJoin wraps its outer input and probes the inner index.
	l := newTable(t, c, "l", [][2]int64{{0, 2}, {0, 3}})
	tr3 := obs.NewTrace("query")
	j := &IndexNLJoin{Left: &SeqScan{Table: l}, Right: tb, Index: idx, LeftOrds: []int{1}}
	op3, flush3 := Instrument(j, tr3.Root())
	if got := len(collect(t, op3)); got != 3 {
		t.Fatalf("idxjoin rows = %d", got)
	}
	flush3()
	sp3 := tr3.Root().Find("idxjoin(e.e_a)")
	if sp3 == nil {
		t.Fatalf("no idxjoin span in\n%s", tr3.Format())
	}
	if v, ok := sp3.Int("descents"); !ok || v != 2 {
		t.Fatalf("idxjoin descents = %d, %v (want 2, one per outer row)", v, ok)
	}
	if sp3.Find("scan(l)") == nil {
		t.Fatalf("idxjoin outer input not counted:\n%s", tr3.Format())
	}
}
