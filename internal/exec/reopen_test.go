package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// rebindTables points every table and index op names at its
// counterpart, as the planner re-binds a kept tree between executions.
func rebindTables(op Operator, tabs map[*catalog.Table]*catalog.Table, idxs map[*catalog.Index]*catalog.Index) {
	switch o := op.(type) {
	case *SeqScan:
		o.Table = tabs[o.Table]
	case *IndexScan:
		o.Table, o.Index = tabs[o.Table], idxs[o.Index]
	case *IndexNLJoin:
		o.Right, o.Index = tabs[o.Right], idxs[o.Index]
		rebindTables(o.Left, tabs, idxs)
	case *Filter:
		rebindTables(o.Input, tabs, idxs)
	case *Project:
		rebindTables(o.Input, tabs, idxs)
	case *Distinct:
		rebindTables(o.Input, tabs, idxs)
	case *CountStar:
		rebindTables(o.Input, tabs, idxs)
	case *NLJoin:
		rebindTables(o.Left, tabs, idxs)
		rebindTables(o.Right, tabs, idxs)
	case *HashJoin:
		rebindTables(o.Left, tabs, idxs)
		rebindTables(o.Right, tabs, idxs)
	case *SetOpExec:
		rebindTables(o.Left, tabs, idxs)
		rebindTables(o.Right, tabs, idxs)
	}
}

// outgrown reports a buffer a closed operator keeps beyond what its
// last pass used (rel.Outgrown), "" when there is none.
func outgrown(op Operator) string {
	values := func(n int) int { return n * rel.ValueSize }
	chunks := func(s *slab) string {
		used, kept := 0, 0
		for i, c := range s.chunks {
			if i < int(s.cut) {
				used += len(c)
			}
			kept += len(c)
		}
		if rel.Outgrown(values(kept), values(used)) || rel.Outgrown(24*cap(s.chunks), 24*len(s.chunks)) {
			return "slab chunks"
		}
		return ""
	}
	keys := func(t *keyTable) bool {
		return rel.Outgrown(cap(t.arena), len(t.arena)) || rel.Outgrown(4*cap(t.ends), 4*len(t.ends)) ||
			rel.Outgrown(8*len(t.slots), 8*2*len(t.ends)*4/3)
	}
	list := func(n, c, size int) bool { return rel.Outgrown(c*size, n*size) }
	switch o := op.(type) {
	case *SeqScan:
		for _, b := range o.blocks {
			if rel.Outgrown(values(b.Cap()), values(b.Len()*o.Table.Schema.Len())) {
				return "SeqScan block"
			}
		}
		for _, b := range o.blocks[len(o.blocks):cap(o.blocks)] {
			if b.Cap() > 0 {
				return "SeqScan block of no page"
			}
		}
	case *IndexScan:
		if rel.Outgrown(values(o.rows.Cap()), values(o.rows.Len()*o.Table.Schema.Len())) {
			return "IndexScan rows"
		}
	case *IndexNLJoin:
		if rel.Outgrown(values(o.matches.Cap()), values(o.peak)) {
			return "IndexNLJoin matches"
		}
		return chunks(&o.out)
	case *Project:
		return chunks(&o.out)
	case *NLJoin:
		if list(len(o.right), cap(o.right), 24) {
			return "NLJoin right rows"
		}
		return chunks(&o.out)
	case *HashJoin:
		if keys(&o.keys) || list(len(o.rows), cap(o.rows), 24) || list(len(o.next), cap(o.next), 4) {
			return "HashJoin build side"
		}
		return chunks(&o.out)
	case *Distinct:
		if keys(&o.seen) {
			return "Distinct keys"
		}
	case *SetOpExec:
		if list(len(o.out), cap(o.out), 24) {
			return "SetOpExec result list"
		}
		if set := o.set; set != nil && (keys(&set.keys) || list(len(set.removed), cap(set.removed), 1) || list(len(set.hit), cap(set.hit), 1)) {
			return "SetOpExec set"
		}
	}
	return ""
}

// reopenCase builds one operator tree of every kind over two tables
// and an index of the second.
type reopenCase struct {
	name  string
	build func(l, r *catalog.Table, idx *catalog.Index) Operator
}

func reopenCases() []reopenCase {
	one := rel.MustSchema(rel.Column{Name: "b", Type: rel.TypeInt})
	gt := Cmp{Op: sql.CmpGt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(1)}}
	cases := []reopenCase{
		{"seqscan", func(l, r *catalog.Table, idx *catalog.Index) Operator { return &SeqScan{Table: l} }},
		{"indexscan", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &IndexScan{Table: r, Index: idx, Key: rel.Tuple{rel.NewInt(3)}}
		}},
		{"filter", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Filter{Input: &SeqScan{Table: l}, Pred: gt}
		}},
		{"project", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Project{Input: &SeqScan{Table: l}, Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}}, Out: one}
		}},
		{"nljoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &NLJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, Pred: Cmp{Op: sql.CmpLt, Left: Col{Ord: 1, Ty: rel.TypeInt}, Right: Col{Ord: 2, Ty: rel.TypeInt}}}
		}},
		{"hashjoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, LeftOrds: []int{1}, RightOrds: []int{0}}
		}},
		{"hashjoin build left", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, LeftOrds: []int{1}, RightOrds: []int{0}, BuildLeft: true, Residual: gt}
		}},
		{"idxjoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &IndexNLJoin{Left: &SeqScan{Table: l}, Right: r, Index: idx, LeftOrds: []int{1}}
		}},
		{"distinct", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Distinct{Input: &Project{Input: &SeqScan{Table: l}, Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}}, Out: one}}
		}},
		{"count", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &CountStar{Input: &Filter{Input: &SeqScan{Table: l}, Pred: gt}}
		}},
		{"values", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Values{Rows: []rel.Tuple{{rel.NewInt(1)}, {rel.NewInt(2)}}, Out: one}
		}},
	}
	for _, k := range []struct {
		kind SetOpKind
		name string
	}{{OpUnion, "union"}, {OpUnionAll, "union all"}, {OpExcept, "except"}, {OpIntersect, "intersect"}} {
		cases = append(cases, reopenCase{k.name, func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &SetOpExec{Kind: k.kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
		}})
		// A chain: the outer operation takes over the inner one's set.
		cases = append(cases, reopenCase{k.name + " chained", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			inner := &SetOpExec{Kind: k.kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
			return &SetOpExec{Kind: OpExcept, Left: inner, Right: &Filter{Input: &SeqScan{Table: r}, Pred: gt}}
		}})
	}
	return cases
}

// reopenTables creates, for k, tables l<k> and r<k> of n rows and the
// index r<k>_a on r's first column.
func reopenTables(t *testing.T, c *catalog.Catalog, k, n int64) (l, r *catalog.Table, idx *catalog.Index) {
	t.Helper()
	var lp, rp [][2]int64
	for i := int64(0); i < n; i++ {
		lp = append(lp, [2]int64{i % 5, (i * k) % 7})
		rp = append(rp, [2]int64{(i * 3) % 7, i + k})
	}
	l = newTable(t, c, fmt.Sprintf("l%d", k), lp)
	r = newTable(t, c, fmt.Sprintf("r%d", k), rp)
	idx, err := c.CreateIndex(fmt.Sprintf("r%d_a", k), r.Name, []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	return l, r, idx
}

// walk calls fn on op and every operator below it.
func walk(op Operator, fn func(Operator)) {
	fn(op)
	switch o := op.(type) {
	case *Filter:
		walk(o.Input, fn)
	case *Project:
		walk(o.Input, fn)
	case *Distinct:
		walk(o.Input, fn)
	case *CountStar:
		walk(o.Input, fn)
	case *IndexNLJoin:
		walk(o.Left, fn)
	case *NLJoin:
		walk(o.Left, fn)
		walk(o.Right, fn)
	case *HashJoin:
		walk(o.Left, fn)
		walk(o.Right, fn)
	case *SetOpExec:
		walk(o.Left, fn)
		walk(o.Right, fn)
	}
}

// TestOperatorsReopen holds every operator kind to the re-open
// contract: opened, drained and closed twice, its tables re-bound in
// between, each pass returns exactly the rows a freshly built operator
// returns over the same tables, read before the next pass starts (it
// may write over them); and a closed operator keeps no buffer its last
// pass outgrew.
func TestOperatorsReopen(t *testing.T) {
	c := cat(t)
	l1, r1, idx1 := reopenTables(t, c, 1, 40)
	l2, r2, idx2 := reopenTables(t, c, 2, 70)
	tabs := map[*catalog.Table]*catalog.Table{l1: l2, r1: r2}
	idxs := map[*catalog.Index]*catalog.Index{idx1: idx2}

	// pass drains op through Open/Next/Close and renders its rows as
	// they come.
	pass := func(op Operator) string {
		var rows []string
		if err := Run(op, func(tu rel.Tuple) error { rows = append(rows, tu.String()); return nil }); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	for _, tc := range reopenCases() {
		check := func(op Operator) {
			walk(op, func(op Operator) {
				if what := outgrown(op); what != "" {
					t.Errorf("%s: closed, keeps its %s beyond what its pass used", tc.name, what)
				}
			})
		}
		op := tc.build(l1, r1, idx1)
		if got, want := pass(op), pass(tc.build(l1, r1, idx1)); got != want {
			t.Errorf("%s, first pass: %s, fresh %s", tc.name, got, want)
		}
		check(op)
		rebindTables(op, tabs, idxs)
		if got, want := pass(op), pass(tc.build(l2, r2, idx2)); got != want {
			t.Errorf("%s, re-bound pass: %s, fresh %s", tc.name, got, want)
		}
		check(op)
	}
}

// TestKeptTreeMemoryBounded: between executions a kept tree retains, in
// each buffer, at most four times what its last execution used plus
// 1 KiB (rel.Outgrown, DESIGN.md §3). Every operator kind runs over
// tables of 1 000 rows, is re-bound to tables of 12, and runs again: the
// heap it then retains must be within that bound of what a tree that
// only ever ran over the small tables retains, 16 buffers' slack
// included. Without the release rule the big pass's blocks, key tables,
// slabs and lists stay, tens to hundreds of KiB per tree. Each tree is
// measured three times and the least taken: a process's first
// collections free memory of its own.
func TestKeptTreeMemoryBounded(t *testing.T) {
	c := cat(t)
	lBig, rBig, idxBig := reopenTables(t, c, 3, 1000)
	l, r, idx := reopenTables(t, c, 4, 12)
	tabs := map[*catalog.Table]*catalog.Table{lBig: l, rBig: r}
	idxs := map[*catalog.Index]*catalog.Index{idxBig: idx}
	run := func(op Operator) {
		if _, err := Collect(op); err != nil {
			t.Fatal(err)
		}
	}
	// retained returns the heap the tree run returns keeps alive.
	retained := func(run func() Operator) int64 {
		least := int64(math.MaxInt64)
		for range 3 {
			op := run()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			runtime.KeepAlive(op)
			op = nil
			runtime.GC()
			runtime.ReadMemStats(&after)
			least = min(least, int64(before.HeapAlloc)-int64(after.HeapAlloc))
		}
		return least
	}
	for _, tc := range reopenCases() {
		kept := retained(func() Operator {
			op := tc.build(lBig, rBig, idxBig)
			run(op)
			rebindTables(op, tabs, idxs)
			run(op)
			return op
		})
		fresh := retained(func() Operator {
			op := tc.build(l, r, idx)
			run(op)
			return op
		})
		if bound := 4*fresh + 16<<10; kept > bound {
			t.Errorf("%s: after a pass over %d rows and one over %d, the tree retains %d bytes; one that only ran over %d retains %d, bound %d",
				tc.name, lBig.Rows(), l.Rows(), kept, l.Rows(), fresh, bound)
		}
	}
}
