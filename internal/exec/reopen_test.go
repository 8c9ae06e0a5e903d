package exec

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
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

// outgrown reports a buffer an operator keeps after a pass beyond what
// that pass used (rel.Outgrown), "" when there is none.
func outgrown(op Operator) string {
	keys := func(t *keyTable) bool {
		return rel.Outgrown(cap(t.arena), len(t.arena)) || rel.Outgrown(4*cap(t.ends), 4*len(t.ends)) ||
			rel.Outgrown(8*len(t.slots), 8*2*len(t.ends)*4/3)
	}
	list := func(n, c, size int) bool { return rel.Outgrown(c*size, n*size) }
	switch o := op.(type) {
	case *HashJoin:
		if keys(&o.keys) || list(len(o.arena), cap(o.arena), 1) || list(len(o.ends), cap(o.ends), 4) ||
			list(len(o.next), cap(o.next), 4) || list(len(o.chains), cap(o.chains), 8) {
			return "HashJoin build side"
		}
	case *Distinct:
		if keys(&o.seen) {
			return "Distinct keys"
		}
	case *SetOpExec:
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
	// arenas are fields of the tree (as held names them) that hold the
	// working memory a pass keeps for the next one.
	arenas []string
}

func reopenCases() []reopenCase {
	one := rel.MustSchema(rel.Column{Name: "b", Type: rel.TypeInt})
	gt := Cmp{Op: sql.CmpGt, Left: Col{Ord: 0, Ty: rel.TypeInt}, Right: Const{Val: rel.NewInt(1)}}
	cases := []reopenCase{
		{"seqscan", func(l, r *catalog.Table, idx *catalog.Index) Operator { return &SeqScan{Table: l} }, nil},
		{"indexscan", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &IndexScan{Table: r, Index: idx, Key: rel.Tuple{rel.NewInt(3)}.Encode(nil), Cols: 1}
		}, nil},
		{"filter", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Filter{Input: &SeqScan{Table: l}, Pred: gt}
		}, nil},
		{"project", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Project{Input: &SeqScan{Table: l}, Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}}, Out: one}
		}, []string{"Project.out"}},
		{"nljoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &NLJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, Pred: Cmp{Op: sql.CmpLt, Left: Col{Ord: 1, Ty: rel.TypeInt}, Right: Col{Ord: 2, Ty: rel.TypeInt}}}
		}, []string{"NLJoin.right.buf", "NLJoin.right.ends", "NLJoin.j.out"}},
		{"hashjoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, LeftOrds: []int{1}, RightOrds: []int{0}}
		}, []string{"HashJoin.arena", "HashJoin.ends", "HashJoin.keys.arena", "HashJoin.chains", "HashJoin.next", "HashJoin.j.out"}},
		{"hashjoin build left", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, LeftOrds: []int{1}, RightOrds: []int{0}, BuildLeft: true, Residual: gt}
		}, []string{"HashJoin.arena", "HashJoin.keys.arena", "HashJoin.j.out"}},
		{"idxjoin", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &IndexNLJoin{Left: &SeqScan{Table: l}, Right: r, Index: idx, LeftOrds: []int{1}}
		}, []string{"IndexNLJoin.j.out"}},
		{"distinct", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Distinct{Input: &Project{Input: &SeqScan{Table: l}, Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}}, Out: one}}
		}, []string{"Distinct.seen.arena"}},
		{"count", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &CountStar{Input: &Filter{Input: &SeqScan{Table: l}, Pred: gt}}
		}, []string{"CountStar.rec"}},
		{"values", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Values{Rows: []rel.Tuple{{rel.NewInt(1)}, {rel.NewInt(2)}}, Out: one}
		}, []string{"Values.rec"}},
		{"project over filter", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &Project{Input: &Filter{Input: &SeqScan{Table: l}, Pred: gt}, Exprs: []Scalar{Col{Ord: 1, Ty: rel.TypeInt}}, Out: one}
		}, []string{"Project.out"}},
		// A projected join under a set operation, as a rule body is.
		{"except over projected join", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			two := rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeInt}, rel.Column{Name: "b", Type: rel.TypeInt})
			join := &HashJoin{Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}, LeftOrds: []int{1}, RightOrds: []int{0}}
			body := &Project{Input: join, Exprs: []Scalar{Col{Ord: 0, Ty: rel.TypeInt}, Col{Ord: 3, Ty: rel.TypeInt}}, Out: two}
			return &SetOpExec{Kind: OpExcept, Left: body, Right: &SeqScan{Table: l}}
		}, []string{"SetOpExec.set", "Project.out", "HashJoin.arena"}},
	}
	for _, k := range []struct {
		kind SetOpKind
		name string
	}{{OpUnion, "union"}, {OpUnionAll, "union all"}, {OpExcept, "except"}, {OpIntersect, "intersect"}} {
		var set []string
		if k.kind != OpUnionAll {
			set = []string{"SetOpExec.set"}
		}
		cases = append(cases, reopenCase{k.name, func(l, r *catalog.Table, idx *catalog.Index) Operator {
			return &SetOpExec{Kind: k.kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
		}, set})
		// A chain: the outer operation takes over the inner one's set.
		cases = append(cases, reopenCase{k.name + " chained", func(l, r *catalog.Table, idx *catalog.Index) Operator {
			inner := &SetOpExec{Kind: k.kind, Left: &SeqScan{Table: l}, Right: &SeqScan{Table: r}}
			return &SetOpExec{Kind: OpExcept, Left: inner, Right: &Filter{Input: &SeqScan{Table: r}, Pred: gt}}
		}, []string{"SetOpExec.set"}})
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

// TestOperatorsReopen holds every operator kind to the re-run
// contract: run twice, its tables re-bound in between, each pass
// returns exactly the rows a freshly built operator returns over the
// same tables; and after a pass an operator keeps no buffer that pass
// outgrew.
func TestOperatorsReopen(t *testing.T) {
	c := cat(t)
	l1, r1, idx1 := reopenTables(t, c, 1, 40)
	l2, r2, idx2 := reopenTables(t, c, 2, 70)
	tabs := map[*catalog.Table]*catalog.Table{l1: l2, r1: r2}
	idxs := map[*catalog.Index]*catalog.Index{idx1: idx2}

	// pass runs op and renders its rows.
	pass := func(op Operator) string { return fmt.Sprint(collect(t, op)) }
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
// included. Without the release rule the big pass's key tables, arenas
// and lists stay, tens of KiB per tree. Each reading measures
// keptTrees identical trees at once (more, for a tree too small to
// read that way) and divides: what a collection frees of the process's
// own memory is then noise against the bytes the trees hold. The big left table's join column holds 1 000 distinct
// values, so that each join reads 1 000 rows a side but emits about as
// many rows as it reads, and 200 big passes stay cheap.
func TestKeptTreeMemoryBounded(t *testing.T) {
	const keptTrees = 200
	c := cat(t)
	_, rBig, idxBig := reopenTables(t, c, 3, 1000)
	wide := make([][2]int64, 1000)
	for i := range wide {
		wide[i] = [2]int64{int64(i % 5), int64(i)}
	}
	lBig := newTable(t, c, "lwide", wide)
	l, r, idx := reopenTables(t, c, 4, 12)
	tabs := map[*catalog.Table]*catalog.Table{lBig: l, rBig: r}
	idxs := map[*catalog.Index]*catalog.Index{idxBig: idx}
	run := func(op Operator) {
		if err := op.ScanRecords(discard); err != nil {
			t.Fatal(err)
		}
	}
	// retained returns the heap each of keptTrees trees that run returns
	// keeps alive.
	retained := func(name string, run func() Operator) int64 {
		// A tree that holds next to nothing — a bare scan keeps a table
		// pointer — is measured over more trees, up to 16 times as many,
		// until the reading rises above the collection's noise.
		var held int64
		for n := keptTrees; n <= 16*keptTrees; n *= 2 {
			trees := make([]Operator, n)
			for i := range trees {
				trees[i] = run()
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			clear(trees)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(trees)
			if held = int64(before.HeapAlloc) - int64(after.HeapAlloc); held > 0 {
				return held / int64(n)
			}
		}
		t.Fatalf("%s: could not measure the heap %d trees retain: the reading came out at %d bytes", name, 16*keptTrees, held)
		return 0
	}
	for _, tc := range reopenCases() {
		kept := retained(tc.name, func() Operator {
			op := tc.build(lBig, rBig, idxBig)
			run(op)
			rebindTables(op, tabs, idxs)
			run(op)
			walk(op, func(op Operator) {
				if what := outgrown(op); what != "" {
					t.Fatalf("%s: after a pass over %d rows and one over %d, keeps its %s", tc.name, lBig.Rows(), l.Rows(), what)
				}
			})
			return op
		})
		fresh := retained(tc.name, func() Operator {
			op := tc.build(l, r, idx)
			run(op)
			return op
		})
		t.Logf("%s: kept %d fresh %d", tc.name, kept, fresh)
		if bound := 4*fresh + 16<<10; kept > bound {
			t.Errorf("%s: after a pass over %d rows and one over %d, the tree retains %d bytes; one that only ran over %d retains %d, bound %d",
				tc.name, lBig.Rows(), l.Rows(), kept, l.Rows(), fresh, bound)
		}
	}
}

// held lists what operator op still holds, by field path: a non-empty
// buffer — any slice, outside the operator's configuration (a
// projection's expressions, a join's key ordinals, a Values list) — or
// a pointer to a table, an index or anything else but a schema. Inputs
// and predicates are not entered: walk visits the inputs, and
// predicates are the statement's.
func held(op Operator) []string {
	var out []string
	config := map[string]bool{"Exprs": true, "LeftOrds": true, "RightOrds": true}
	operator := reflect.TypeOf((*Operator)(nil)).Elem()
	pred := reflect.TypeOf((*Pred)(nil)).Elem()
	schema := reflect.TypeOf((*rel.Schema)(nil))
	values := reflect.TypeOf(Values{})
	var visit func(v reflect.Value, path string)
	visit = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if f.Type == operator || f.Type == pred || config[f.Name] || v.Type() == values && f.Name == "Rows" {
					continue
				}
				visit(v.Field(i), path+"."+f.Name)
			}
		case reflect.Slice:
			if v.Cap() > 0 {
				out = append(out, fmt.Sprintf("%s (%d of %s)", path, v.Cap(), v.Type()))
			}
		case reflect.Pointer:
			if !v.IsNil() && v.Type() != schema {
				out = append(out, fmt.Sprintf("%s (%s)", path, v.Type()))
			}
		}
	}
	visit(reflect.ValueOf(op).Elem(), reflect.TypeOf(op).Elem().Name())
	return out
}

// bindLike points every table, index and probe key of op at those of
// ref, a tree of the same shape: what the planner's re-bind does for a
// shed tree.
func bindLike(op, ref Operator) {
	switch o := op.(type) {
	case *SeqScan:
		o.Table = ref.(*SeqScan).Table
	case *IndexScan:
		r := ref.(*IndexScan)
		o.Table, o.Index, o.Key, o.Cols = r.Table, r.Index, r.Key, r.Cols
	case *IndexNLJoin:
		r := ref.(*IndexNLJoin)
		o.Right, o.Index = r.Right, r.Index
		bindLike(o.Left, r.Left)
	case *Filter:
		bindLike(o.Input, ref.(*Filter).Input)
	case *Project:
		bindLike(o.Input, ref.(*Project).Input)
	case *Distinct:
		bindLike(o.Input, ref.(*Distinct).Input)
	case *CountStar:
		bindLike(o.Input, ref.(*CountStar).Input)
	case *NLJoin:
		bindLike(o.Left, ref.(*NLJoin).Left)
		bindLike(o.Right, ref.(*NLJoin).Right)
	case *HashJoin:
		bindLike(o.Left, ref.(*HashJoin).Left)
		bindLike(o.Right, ref.(*HashJoin).Right)
	case *SetOpExec:
		bindLike(o.Left, ref.(*SetOpExec).Left)
		bindLike(o.Right, ref.(*SetOpExec).Right)
	}
}

// TestShedTreesHoldNothing: a tree shed between the runs of its
// statement (Shed) holds, in every operator of every kind, no
// buffer — key table, set, record arena, record buffer, column reader
// or list — and no table, index or probe key: only operators,
// predicates and decisions. Each case is shed after two passes, which
// leave it holding the arenas it keeps for a next pass — and no
// column reader still aliasing a record, which would keep a page's
// bytes alive. Re-bound to tables again, the shed tree runs as a fresh
// one, and sheds again to nothing.
func TestShedTreesHoldNothing(t *testing.T) {
	c := cat(t)
	l1, r1, idx1 := reopenTables(t, c, 1, 40)
	l2, r2, idx2 := reopenTables(t, c, 2, 70)
	pass := func(op Operator) string { return fmt.Sprint(collect(t, op)) }
	reader := regexp.MustCompile(`\.(row|in|side|outer)\.rec `)
	for _, tc := range reopenCases() {
		shed := func(op Operator, when string) {
			Shed(op)
			walk(op, func(op Operator) {
				for _, h := range held(op) {
					t.Errorf("%s, shed %s: holds %s", tc.name, when, h)
				}
			})
		}
		op := tc.build(l1, r1, idx1)
		pass(op)
		pass(op)
		var kept []string
		walk(op, func(op Operator) { kept = append(kept, held(op)...) })
		for _, a := range tc.arenas {
			if !slices.ContainsFunc(kept, func(h string) bool { return strings.HasPrefix(h, a+" ") }) {
				t.Errorf("%s: after two passes holds no %s: %v", tc.name, a, kept)
			}
		}
		for _, h := range kept {
			if reader.MatchString(h) {
				t.Errorf("%s: after two passes a column reader holds a record: %s", tc.name, h)
			}
		}
		shed(op, "after two passes")
		bindLike(op, tc.build(l2, r2, idx2))
		if got, want := pass(op), pass(tc.build(l2, r2, idx2)); got != want {
			t.Errorf("%s, shed and re-bound: %s, fresh %s", tc.name, got, want)
		}
		shed(op, "again")
	}
}
