package plan

import (
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/exec"
	"dkbms/internal/plan/plantest"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// TestKeptTreeAllocs pins what keeping an operator tree costs, on the
// statement shapes an LFP round issues (BenchmarkBuildSelect's one-,
// two- and three-table statements): a statement's first execution
// through Acquire, which constructs the tree it keeps, allocates no
// more than Build — the kept scratch is the scratch Build allocates
// anyway — and an execution that decides as the last one did allocates
// nothing at all — also when it binds another ?1: the value is copied
// into the tree's own array, which the tree's parameters read. An
// Acquire while the kept tree is held plans a tree of its own.
func TestKeptTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := setup(t)
	addTable(t, c, "d", 0)
	addTable(t, c, "e", 500)
	addTable(t, c, "m", 0)
	if _, err := c.CreateIndex("e_a", "e", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT DISTINCT e.a, e.b FROM e",
		"SELECT DISTINCT e.a, d.b FROM e, d WHERE e.b = d.a",
		"SELECT DISTINCT e.a, d.b FROM m, e, d WHERE m.a = e.a AND e.b = d.a",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		prepare := func() *Prepared {
			p, err := Prepare(c, st.(*sql.Select), nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		build := testing.AllocsPerRun(50, func() {
			if _, err := prepare().Build(c, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		first := testing.AllocsPerRun(50, func() {
			p := prepare()
			tr, _, err := p.Acquire(c, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Release(tr)
		})
		if first > build {
			t.Errorf("%s: a first kept execution allocates %.0f objects, Build %.0f", q, first, build)
		}
		p := prepare()
		tr, _, err := p.Acquire(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// While one execution holds the kept tree another plans its own.
		if other, reused, err := p.Acquire(c, nil, nil); err != nil || reused || other == tr {
			t.Fatalf("%s: an Acquire while the tree is held: reused=%v, same tree=%v, %v", q, reused, other == tr, err)
		}
		p.Release(tr)
		again := testing.AllocsPerRun(50, func() {
			tr, reused, err := p.Acquire(c, nil, nil)
			if err != nil || !reused {
				t.Fatalf("%s: reused=%v, %v", q, reused, err)
			}
			p.Release(tr)
		})
		if again != 0 {
			t.Errorf("%s: a re-bound execution allocates %.0f objects, want 0", q, again)
		}
	}

	// Re-bind with another ?1: e.a is unique, so every value reads one
	// row of e through e_a, and the decisions stay.
	const q = "SELECT DISTINCT e.a, d.b FROM e, d WHERE e.b = d.a AND e.a = ?1"
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(c, st.(*sql.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := [][]rel.Value{{rel.NewInt(3)}, {rel.NewInt(7)}}
	tr, _, err := p.Acquire(c, nil, vals[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Release(tr)
	i := 0
	again := testing.AllocsPerRun(50, func() {
		i++
		tr, reused, err := p.Acquire(c, nil, vals[i%2])
		if err != nil || !reused {
			t.Fatalf("%s: ?1 = %v: reused=%v, %v", q, vals[i%2][0], reused, err)
		}
		p.Release(tr)
	})
	if again != 0 {
		t.Errorf("%s: a re-bind with another ?1 allocates %.0f objects, want 0", q, again)
	}
}

// TestKeptTreeExecAllocs pins what a kept tree's execution allocates
// once its working memory is kept: re-bound over unchanged tables, a
// two-table hash join feeding an EXCEPT decodes its pages over the last
// execution's blocks, resets its build side and set, rewinds its slab,
// and allocates only the copy its reader returns — the set's survivors
// decoded into one value slab (integer columns: no string), sized by
// the first execution's row count, and the list of their rows, 2
// objects.
func TestKeptTreeExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := setup(t)
	addTable(t, c, "e", 500)
	addTable(t, c, "d", 20)
	addTable(t, c, "m", 30)
	st, err := sql.Parse("SELECT DISTINCT e.a, d.b FROM e, d WHERE e.b = d.a EXCEPT SELECT * FROM m")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(c, st.(*sql.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = 470
	// The reader's sink is made once: a decoder sized for want rows.
	var dec rel.BlockDecoder
	add := func(rec []byte) error { return dec.Add(rec) }
	run := func() []rel.Tuple {
		tr, _, err := p.Acquire(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release(tr)
		dec = rel.NewBlockDecoder(tr.Root.Schema())
		dec.Begin(want, 0)
		if err := tr.Root.ScanRecords(add); err != nil {
			t.Fatal(err)
		}
		return dec.FinishLast().Rows()
	}
	first := run()
	if len(first) != want {
		t.Fatalf("%d rows, want the 500 pairs less the 30 of m", len(first))
	}
	tr, reused, _ := p.Acquire(c, nil, nil)
	p.Release(tr)
	if tree := plantest.Render(tr.Root); !reused || !strings.Contains(tree, "hash[") {
		t.Fatalf("reused=%v, %s: the statement must re-bind a hash-join tree", reused, tree)
	}
	const returnedCopy = 2
	if got := testing.AllocsPerRun(50, func() { run() }); got != returnedCopy {
		t.Errorf("a re-bound execution allocates %.0f objects, want %d: the returned copy's slab and row list", got, returnedCopy)
	}
}

// TestShedTreeRebinds: Shed empties the tree a Prepared keeps — it
// holds no table, index, probe key or value, in its operators or in its
// scratch — and the next execution re-binds it, to other tables' state
// and another ?1, as the tree Build constructs. A Shed while an
// execution holds the tree leaves that tree alone, and a Shed of a
// Prepared that keeps no tree does nothing.
func TestShedTreeRebinds(t *testing.T) {
	c := setup(t)
	e := addTable(t, c, "e", 500)
	addTable(t, c, "d", 20)
	if _, err := c.CreateIndex("e_a", "e", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse("SELECT DISTINCT e.a, d.b FROM e, d WHERE e.a = ?1 AND e.b = d.a")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, st.(*sql.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	(&Prepared{Analyzed: a}).Shed()
	p := &Prepared{Analyzed: a}
	// acquire takes p's tree for ?1 = v and checks it renders as the
	// tree Build constructs; the caller drains and releases it.
	acquire := func(v int64) (tr *Tree, reused bool, fresh exec.Operator) {
		t.Helper()
		vals := []rel.Value{rel.NewInt(v)}
		tr, reused, err := p.Acquire(c, nil, vals)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err = a.Build(c, nil, vals); err != nil {
			t.Fatal(err)
		}
		if got, want := plantest.Render(tr.Root), plantest.Render(fresh); got != want {
			t.Fatalf("?1 = %d, re-bound=%v: the tree\n%s\nis not the fresh one\n%s", v, reused, got, want)
		}
		return tr, reused, fresh
	}
	run := func(v int64) (reused bool, root exec.Operator) {
		t.Helper()
		tr, reused, _ := acquire(v)
		defer p.Release(tr)
		if _, err := collectOwned(tr.Root); err != nil {
			t.Fatal(err)
		}
		return reused, tr.Root
	}

	if reused, _ := run(3); reused {
		t.Fatal("a first execution re-bound a tree")
	}

	// A Shed while an execution holds the tree leaves the tree bound.
	tr, _, fresh := acquire(5)
	p.Shed()
	for _, bt := range tr.blocks {
		for _, tab := range bt.tabs {
			if tab.t == nil {
				t.Error("a Shed while an execution held the tree unbound a table")
			}
		}
	}
	got, err := collectOwned(tr.Root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectOwned(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the held tree drained %v after a Shed, the fresh one %v", got, want)
	}
	p.Release(tr)

	p.Shed()
	shed := p.tree.Root
	if shed == nil {
		t.Fatal("Shed dropped the tree")
	}
	var scans int
	var check func(op exec.Operator)
	check = func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.SeqScan:
			scans++
			if o.Table != nil {
				t.Errorf("a shed SeqScan holds table %s", o.Table.Name)
			}
		case *exec.IndexScan:
			scans++
			if o.Table != nil || o.Index != nil || o.Key != nil {
				t.Errorf("a shed IndexScan holds table %v, index %v, key %v", o.Table, o.Index, o.Key)
			}
		case *exec.IndexNLJoin:
			if o.Right != nil || o.Index != nil {
				t.Errorf("a shed index join holds table %v, index %v", o.Right, o.Index)
			}
			check(o.Left)
		case *exec.HashJoin:
			check(o.Left)
			check(o.Right)
		case *exec.Filter:
			check(o.Input)
		case *exec.Project:
			check(o.Input)
		case *exec.Distinct:
			check(o.Input)
		}
	}
	check(shed)
	if scans != 2 {
		t.Errorf("checked %d scans of the shed tree, want 2:\n%s", scans, plantest.Render(shed))
	}
	for _, bt := range p.tree.blocks {
		for _, tab := range bt.tabs {
			if tab.t != nil || tab.scanIndex != nil || tab.via.index != nil {
				t.Errorf("the shed scratch holds table %v, index %v, join index %v", tab.t, tab.scanIndex, tab.via.index)
			}
			if len(tab.scanKey) != 0 {
				t.Errorf("the shed scratch holds probe key %x", tab.scanKey)
			}
		}
	}
	for _, v := range p.tree.vals {
		if v.Int != 0 || v.Str != "" {
			t.Errorf("the shed tree holds value %v", v)
		}
	}

	// The next execution re-binds it, over a grown table and with
	// another ?1.
	for i := 500; i < 600; i++ {
		if _, err := e.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if reused, root := run(7); !reused || root != shed {
		t.Fatalf("the execution after Shed: re-bound=%v, the shed tree=%v", reused, root == shed)
	}
}
