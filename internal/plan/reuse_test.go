package plan

import (
	"testing"

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
