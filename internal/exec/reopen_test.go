package exec

import (
	"fmt"
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

// released reports what a closed operator still holds of the rows its
// pass read, "" when nothing.
func released(op Operator) string {
	switch o := op.(type) {
	case *SeqScan:
		if len(o.blocks) > 0 {
			return "SeqScan blocks"
		}
	case *IndexScan:
		if o.rows.Len() > 0 {
			return "IndexScan rows"
		}
	case *IndexNLJoin:
		if o.batch != nil || o.matches.Len() > 0 {
			return "IndexNLJoin batch"
		}
	case *NLJoin:
		if o.right != nil || o.cur != nil {
			return "NLJoin right rows"
		}
	case *HashJoin:
		if o.rows != nil || o.cur != nil || o.keys.len() > 0 {
			return "HashJoin build side"
		}
	case *Distinct:
		if o.seen.len() > 0 {
			return "Distinct keys"
		}
	case *SetOpExec:
		if o.out != nil {
			return "SetOpExec result"
		}
	}
	return ""
}

// TestOperatorsReopen holds every operator kind to the re-open
// contract: opened, drained and closed twice, its tables re-bound in
// between, each pass returns exactly the rows a freshly built operator
// returns over the same tables; Close releases the pass's rows; and the
// rows of the first pass are intact after the second, whatever slab
// space the operator carried over.
func TestOperatorsReopen(t *testing.T) {
	c := cat(t)
	gen := func(k, n int64) (l, r *catalog.Table, idx *catalog.Index) {
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
	l1, r1, idx1 := gen(1, 40)
	l2, r2, idx2 := gen(2, 70)
	tabs := map[*catalog.Table]*catalog.Table{l1: l2, r1: r2}
	idxs := map[*catalog.Index]*catalog.Index{idx1: idx2}

	one := rel.MustSchema(rel.Column{Name: "b", Type: rel.TypeInt})
	gt := Cmp{Op: sql.CmpGt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(1)}}
	cases := []struct {
		name  string
		build func(l, r *catalog.Table, idx *catalog.Index) Operator
	}{
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
	for kind, name := range map[SetOpKind]string{OpUnion: "union", OpUnionAll: "union all", OpExcept: "except", OpIntersect: "intersect"} {
		cases = append(cases, struct {
			name  string
			build func(l, r *catalog.Table, idx *catalog.Index) Operator
		}{name, func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &SetOpExec{Kind: kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
		}})
	}

	render := func(rows []rel.Tuple) string { return fmt.Sprint(rows) }
	for _, tc := range cases {
		op := tc.build(l1, r1, idx1)
		first := collect(t, op)
		want1 := render(collect(t, tc.build(l1, r1, idx1)))
		if got := render(first); got != want1 {
			t.Errorf("%s, first pass: %s, fresh %s", tc.name, got, want1)
		}
		var walk func(op Operator)
		walk = func(op Operator) {
			if what := released(op); what != "" {
				t.Errorf("%s: closed, still holds its %s", tc.name, what)
			}
			switch o := op.(type) {
			case *Filter:
				walk(o.Input)
			case *Project:
				walk(o.Input)
			case *Distinct:
				walk(o.Input)
			case *CountStar:
				walk(o.Input)
			case *IndexNLJoin:
				walk(o.Left)
			case *NLJoin:
				walk(o.Left)
				walk(o.Right)
			case *HashJoin:
				walk(o.Left)
				walk(o.Right)
			case *SetOpExec:
				walk(o.Left)
				walk(o.Right)
			}
		}
		walk(op)

		rebindTables(op, tabs, idxs)
		second := render(collect(t, op))
		if want2 := render(collect(t, tc.build(l2, r2, idx2))); second != want2 {
			t.Errorf("%s, re-bound pass: %s, fresh %s", tc.name, second, want2)
		}
		walk(op)
		if got := render(first); got != want1 {
			t.Errorf("%s: the first pass's rows became %s after the second, were %s", tc.name, got, want1)
		}
	}
}
