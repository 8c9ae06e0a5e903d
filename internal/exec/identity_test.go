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

// Allocation pins. A row costs no allocation of its own anywhere in the
// executor: scans decode a page into one block, Project and the joins
// cut their output from slabs, identity is a byte-keyed table probed
// with a reused scratch key, and stored records are compared and
// counted undecoded. Each pin measures the same operator over a small
// and a ten times larger input and holds the difference, so fixed
// per-statement costs drop out.

// pairsTable creates name holding (i, i) for i in [from, to).
func pairsTable(t *testing.T, c *catalog.Catalog, name string, from, to int64) *catalog.Table {
	t.Helper()
	pairs := make([][2]int64, 0, to-from)
	for i := from; i < to; i++ {
		pairs = append(pairs, [2]int64{i, i})
	}
	return newTable(t, c, name, pairs)
}

func allocsOf(t *testing.T, mk func() Operator) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if err := Run(mk(), func(rel.Tuple) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExceptAllocsIndependentOfRightSize: EXCEPT and INTERSECT build on
// the left and stream the right table's stored records, so a right
// side ten times larger allocates nothing more — traced or not.
func TestExceptAllocsIndependentOfRightSize(t *testing.T) {
	c := cat(t)
	left := pairsTable(t, c, "l", 0, 16)
	small := pairsTable(t, c, "small", 8, 108)
	big := pairsTable(t, c, "big", 8, 1008)
	for _, kind := range []SetOpKind{OpExcept, OpIntersect} {
		for _, traced := range []bool{false, true} {
			mk := func(right *catalog.Table) func() Operator {
				return func() Operator {
					var sp *obs.Span
					if traced {
						sp = obs.NewTrace("q").Root()
					}
					op, _ := Instrument(&SetOpExec{Kind: kind, Left: &SeqScan{Table: left}, Right: &SeqScan{Table: right}}, sp)
					return op
				}
			}
			a, b := allocsOf(t, mk(small)), allocsOf(t, mk(big))
			if a != b {
				t.Errorf("%s traced=%v: %.0f allocations against 100 right rows, %.0f against 1000; want equal",
					setOpName(kind), traced, a, b)
			}
		}
	}
	// The same right side behind a filter arrives as decoded tuples: the
	// result is the same, the allocations are not.
	raw := collect(t, &SetOpExec{Kind: OpExcept, Left: &SeqScan{Table: left}, Right: &SeqScan{Table: big}})
	dec := collect(t, &SetOpExec{Kind: OpExcept, Left: &SeqScan{Table: left},
		Right: &Filter{Input: &SeqScan{Table: big}, Pred: True{}}})
	if len(raw) != 8 || len(dec) != 8 {
		t.Fatalf("l EXCEPT big: %d rows reading records, %d reading tuples; want 8", len(raw), len(dec))
	}
}

// manyRows is n copies of one row: every probe after the first finds
// its key.
func manyRows(n int) *Values {
	rows := make([]rel.Tuple, n)
	for i := range rows {
		rows[i] = rel.Tuple{rel.NewInt(7), rel.NewString("a constant of some length")}
	}
	return &Values{Rows: rows, Out: rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt}, rel.Column{Name: "b", Type: rel.TypeString})}
}

// TestProbeHitAllocatesNothing: a Distinct probe that finds its key
// allocates nothing, and a HashJoin probe that finds its key allocates
// only the joined tuple it emits.
func TestProbeHitAllocatesNothing(t *testing.T) {
	distinct := func(n int) func() Operator {
		in := manyRows(n)
		return func() Operator { return &Distinct{Input: in} }
	}
	if a, b := allocsOf(t, distinct(100)), allocsOf(t, distinct(1000)); a != b {
		t.Errorf("distinct: %.0f allocations over 100 duplicates, %.0f over 1000; want equal", a, b)
	}
	join := func(n int) func() Operator {
		probe, build := manyRows(n), manyRows(1)
		return func() Operator {
			return &HashJoin{Left: probe, Right: build, LeftOrds: []int{1, 0}, RightOrds: []int{1, 0}}
		}
	}
	if a, b := allocsOf(t, join(100)), allocsOf(t, join(1000)); b-a > 900/16 {
		t.Errorf("hashjoin: %.0f allocations for 100 matching probes, %.0f for 1000; want at most one (a slab chunk) per 16 probes", a, b)
	}
}

// mixedTable creates name holding (i, i%7, "s<i>") for i in [0, n).
func mixedTable(t *testing.T, c *catalog.Catalog, name string, n int) *catalog.Table {
	t.Helper()
	tb, err := c.CreateTable(name, rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeInt},
		rel.Column{Name: "b", Type: rel.TypeInt},
		rel.Column{Name: "s", Type: rel.TypeString},
	), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(i % 7)), rel.NewString(fmt.Sprintf("s%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestAllocsIndependentOfRowCount: every row-producing operator run
// over 1000 rows allocates within a constant of the same over 100 rows
// — pages and slab chunks, not rows — traced or not. (One allocation
// per row would make the difference 900 or more.)
func TestAllocsIndependentOfRowCount(t *testing.T) {
	const slack = 60
	c := cat(t)
	small, big := mixedTable(t, c, "small", 100), mixedTable(t, c, "big", 1000)
	smallKeys, bigKeys := mixedTable(t, c, "smallkeys", 100), mixedTable(t, c, "bigkeys", 1000)
	idx := map[*catalog.Table]*catalog.Index{}
	for _, tb := range []*catalog.Table{smallKeys, bigKeys} {
		ix, err := c.CreateIndex(tb.Name+"_a", tb.Name, []string{"a"}, false)
		if err != nil {
			t.Fatal(err)
		}
		idx[tb] = ix
	}
	inner := map[*catalog.Table]*catalog.Table{small: smallKeys, big: bigKeys}
	bIs3 := Cmp{Op: sql.CmpEq, Left: Col{Ord: 1, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(3)}}
	aLtA := Cmp{Op: sql.CmpLe, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Col{Ord: 3, Ty: rel.TypeInt}}
	for _, tc := range []struct {
		name string
		mk   func(tb *catalog.Table) Operator
		rows func(n int) int
	}{
		{"scan", func(tb *catalog.Table) Operator { return &SeqScan{Table: tb} }, func(n int) int { return n }},
		{"filter", func(tb *catalog.Table) Operator { return &Filter{Input: &SeqScan{Table: tb}, Pred: bIs3} },
			func(n int) int { return (n + 3) / 7 }},
		{"project", func(tb *catalog.Table) Operator {
			return &Project{Input: &SeqScan{Table: tb}, Exprs: []Scalar{Col{Ord: 2, Ty: rel.TypeString}, Col{Ord: 0, Ty: rel.TypeInt}},
				Out: rel.MustSchema(rel.Column{Name: "s", Type: rel.TypeString}, rel.Column{Name: "a", Type: rel.TypeInt})}
		}, func(n int) int { return n }},
		{"hashjoin", func(tb *catalog.Table) Operator {
			return &HashJoin{Left: &SeqScan{Table: tb}, Right: &SeqScan{Table: inner[tb]},
				LeftOrds: []int{0, 2}, RightOrds: []int{0, 2}, Residual: aLtA}
		}, func(n int) int { return n }},
		{"hashjoin, residual fails", func(tb *catalog.Table) Operator {
			return &HashJoin{Left: &SeqScan{Table: tb}, Right: &SeqScan{Table: inner[tb]},
				LeftOrds: []int{0}, RightOrds: []int{0}, BuildLeft: true, Residual: NotP{Inner: aLtA}}
		}, func(n int) int { return 0 }},
		{"idxjoin", func(tb *catalog.Table) Operator {
			return &IndexNLJoin{Left: &SeqScan{Table: tb}, Right: inner[tb], Index: idx[inner[tb]], LeftOrds: []int{0}}
		}, func(n int) int { return n }},
		{"idxscan", func(tb *catalog.Table) Operator {
			// Every row of the indexed twin: a prefix scan with an empty key.
			return &IndexScan{Table: inner[tb], Index: idx[inner[tb]], Key: rel.Tuple{}}
		}, func(n int) int { return n }},
		{"except", func(tb *catalog.Table) Operator {
			return &SetOpExec{Kind: OpExcept, Left: &SeqScan{Table: tb},
				Right: &Filter{Input: &SeqScan{Table: inner[tb]}, Pred: bIs3}}
		}, func(n int) int { return n - (n+3)/7 }},
		{"distinct", func(tb *catalog.Table) Operator { return &Distinct{Input: &SeqScan{Table: tb}} }, func(n int) int { return n }},
	} {
		for _, traced := range []bool{false, true} {
			run := func(tb *catalog.Table) func() Operator {
				return func() Operator {
					var sp *obs.Span
					if traced {
						sp = obs.NewTrace("q").Root()
					}
					op, _ := Instrument(tc.mk(tb), sp)
					return op
				}
			}
			if got, want := len(collect(t, run(big)())), tc.rows(1000); got != want {
				t.Fatalf("%s traced=%v: %d rows over 1000, want %d", tc.name, traced, got, want)
			}
			a, b := allocsOf(t, run(small)), allocsOf(t, run(big))
			if b-a > slack {
				t.Errorf("%s traced=%v: %.0f allocations over 100 rows, %.0f over 1000; want within %d", tc.name, traced, a, b, slack)
			}
		}
	}
}

// TestCountStarAllocsIndependentOfTableSize: COUNT(*) over a bare table
// counts stored records.
func TestCountStarAllocsIndependentOfTableSize(t *testing.T) {
	c := cat(t)
	small := pairsTable(t, c, "small", 0, 100)
	big := pairsTable(t, c, "big", 0, 1000)
	count := func(tb *catalog.Table) func() Operator {
		return func() Operator { return &CountStar{Input: &SeqScan{Table: tb}} }
	}
	a, b := allocsOf(t, count(small)), allocsOf(t, count(big))
	if a != b {
		t.Errorf("count(*): %.0f allocations over 100 rows, %.0f over 1000; want equal", a, b)
	}
	rows := collect(t, count(big)())
	if len(rows) != 1 || rows[0][0].Int != 1000 {
		t.Fatalf("count(*) = %v, want 1000", rows)
	}
}

// TestSetOpChainSharesOneBuild: A EXCEPT B EXCEPT C hashes A once — the
// outer operation takes over the inner one's set — and the inner
// operation still reports its own row count under tracing.
func TestSetOpChainSharesOneBuild(t *testing.T) {
	c := cat(t)
	a := pairsTable(t, c, "a", 0, 200)
	b := pairsTable(t, c, "b", 100, 150)
	d := pairsTable(t, c, "d", 0, 20)
	chain := func() Operator {
		inner := &SetOpExec{Kind: OpExcept, Left: &SeqScan{Table: a}, Right: &SeqScan{Table: b}}
		return &SetOpExec{Kind: OpExcept, Left: inner, Right: &SeqScan{Table: d}}
	}
	single := func() Operator {
		return &SetOpExec{Kind: OpExcept, Left: &SeqScan{Table: a}, Right: &SeqScan{Table: b}}
	}
	if got := len(collect(t, chain())); got != 130 {
		t.Fatalf("a EXCEPT b EXCEPT d: %d rows, want 130", got)
	}
	// A second build would cost at least one key per surviving tuple.
	if one, two := allocsOf(t, single), allocsOf(t, chain); two-one > 10 {
		t.Errorf("chain allocates %.0f, single EXCEPT %.0f: the outer operation re-hashed its input", two, one)
	}
	tr := obs.NewTrace("q")
	op, flush := Instrument(chain(), tr.Root())
	if got := len(collect(t, op)); got != 130 {
		t.Fatalf("traced chain: %d rows, want 130", got)
	}
	flush()
	outer := tr.Root().Children[0]
	inner := outer.Children[0]
	if rows, _ := outer.Int("rows"); rows != 130 {
		t.Errorf("outer except rows=%d, want 130\n%s", rows, tr.Format())
	}
	if rows, _ := inner.Int("rows"); inner.Name != "except" || rows != 150 {
		t.Errorf("inner %s rows=%d, want except rows=150\n%s", inner.Name, rows, tr.Format())
	}
}

// schemaCounter is a one-row leaf that counts how often its schema is
// asked for.
type schemaCounter struct {
	Values
	calls *int
}

func (s *schemaCounter) Schema() *rel.Schema {
	*s.calls++
	return s.Values.Schema()
}

// TestUnionChainResolvesSchemasOnce: a k-way UNION is k operators deep
// on its left spine and every level needs its left input's schema, so
// an operator that re-derives it walks the spine again — quadratic in k
// (stored.ExtractRelevant emits a 2k-way UNION for k predicates). Each
// leaf is asked once, whatever k is, traced or not.
func TestUnionChainResolvesSchemasOnce(t *testing.T) {
	out := rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeInt})
	for _, k := range []int{20, 2000} {
		for _, traced := range []bool{false, true} {
			calls := 0
			leaf := func(i int) Operator {
				return &schemaCounter{Values{Rows: []rel.Tuple{{rel.NewInt(int64(i % 7))}}, Out: out}, &calls}
			}
			op := leaf(0)
			for i := 1; i < k; i++ {
				op = &SetOpExec{Kind: OpUnion, Left: op, Right: leaf(i)}
			}
			var flush func()
			if traced {
				op, flush = Instrument(op, obs.NewTrace("q").Root())
			}
			if got := len(collect(t, op)); got != 7 {
				t.Fatalf("k=%d: %d rows, want 7", k, got)
			}
			if traced {
				flush()
			}
			if calls > k {
				t.Errorf("k=%d traced=%v: leaf schemas asked for %d times, want at most %d", k, traced, calls, k)
			}
		}
	}
}

// TestScanRowsAddressesWhatNextYields: a scan, an index scan and a
// Filter over either hand ScanRows the tuples Open/Next yield, each
// with the RID it is stored at, and Instrument's wrapper counts them as
// rows with the access path's physical I/O.
func TestScanRowsAddressesWhatNextYields(t *testing.T) {
	c := cat(t)
	tb := newTable(t, c, "e", [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 40}, {2, 20}})
	idx, err := c.CreateIndex("e_a", "e", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	bIs20 := Cmp{Op: sql.CmpEq, Left: Col{Ord: 1, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(20)}}
	for _, tc := range []struct {
		name string
		mk   func() Operator
		span string
		want int
	}{
		{"scan", func() Operator { return &SeqScan{Table: tb} }, "scan(e)", 5},
		{"idxscan", func() Operator { return &IndexScan{Table: tb, Index: idx, Key: rel.Tuple{rel.NewInt(2)}} }, "idxscan(e.e_a)", 3},
		{"filter(scan)", func() Operator { return &Filter{Input: &SeqScan{Table: tb}, Pred: bIs20} }, "filter", 2},
		{"filter(idxscan)", func() Operator {
			return &Filter{Input: &IndexScan{Table: tb, Index: idx, Key: rel.Tuple{rel.NewInt(2)}}, Pred: bIs20}
		}, "filter", 2},
	} {
		yielded := map[string]int{}
		for _, tu := range collect(t, tc.mk()) {
			yielded[tu.Key()]++
		}
		tr := obs.NewTrace("q")
		op, flush := Instrument(tc.mk(), tr.Root())
		seen := map[storage.RID]bool{}
		err := ScanRows(op, func(rid storage.RID, tu rel.Tuple) error {
			stored, err := tb.Get(rid)
			if err != nil || stored.Key() != tu.Key() || seen[rid] {
				t.Errorf("%s: %v reported at %s, which holds %v (%v; seen before: %v)", tc.name, tu, rid, stored, err, seen[rid])
			}
			seen[rid] = true
			yielded[tu.Key()]--
			return nil
		})
		flush()
		if err != nil || len(seen) != tc.want {
			t.Errorf("%s: %d rows (%v), want %d", tc.name, len(seen), err, tc.want)
		}
		for k, n := range yielded {
			if n != 0 {
				t.Errorf("%s: ScanRows and Next disagree on %q by %d", tc.name, k, n)
			}
		}
		sp := tr.Root().Find(tc.span)
		if rows, _ := sp.Int("rows"); sp == nil || int(rows) != tc.want {
			t.Errorf("%s: traced rows=%d, want %d\n%s", tc.name, rows, tc.want, tr.Format())
		}
	}
	if err := ScanRows(&CountStar{Input: &SeqScan{Table: tb}}, nil); err == nil {
		t.Error("ScanRows over an operator with no stored rows succeeded")
	}
}
