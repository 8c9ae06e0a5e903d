package plan

import (
	"context"
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
// nothing at all. An Acquire while the kept tree is held plans a tree
// of its own.
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
}

// TestKeptTreeExecAllocs pins what a kept tree's execution allocates
// once its working memory is kept: re-bound over unchanged tables, a
// two-table hash join feeding an EXCEPT decodes its pages over the last
// execution's blocks, resets its build side and set, rewinds its slab,
// and allocates only the copy it returns — the set's survivors decoded
// into one value slab (integer columns: no string) and the list of
// their rows, 2 objects.
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
	run := func() []rel.Tuple {
		tr, _, err := p.Acquire(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release(tr)
		rows, err := exec.CollectOwned(context.Background(), tr.Root)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := run()
	if len(first) != 470 {
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
