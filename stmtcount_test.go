package dkbms

import (
	"testing"

	"dkbms/internal/db"
	"dkbms/internal/workload"
)

// TestStatementCountsPinned pins what the evaluation and maintenance
// paths *do* to the DBMS, as statement counts, on the EXPERIMENTS.md
// Test 6 workload (ancestor over the 1022-edge full binary tree). The
// paper's Tests 5–7 measure exactly this traffic — temp-table DDL,
// INSERT ... SELECT rule bodies, termination SELECTs — so a refactor of
// the LFP machinery that changes a constant here has changed what those
// experiments measure, whether or not the answers still agree.
//
// The three rtlib rows were captured at the commit before the shared
// fixpoint driver and must not move. They compile with generalized
// magic sets forced (queryMagic), as the paper's experiments do. The
// two maintenance rows were re-captured with the driver, because
// maintenance adopted its per-round delta tables in
// place of its own truncate-and-reuse pair: before, insert {Selects: 37,
// Inserts: 39, InsertedRows: 25, Deletes: 33, DDL: 14} and retract
// {Selects: 45, Inserts: 41, InsertedRows: 1048, Deletes: 34, DDL: 22} —
// the same rule firings and promotions, fewer counts, DELETE-truncation
// traded for CREATE/DROP. They run on the served path, which factors
// the bound closure since the Optimizer gained factoring, and were
// re-captured again: before, under generalized magic sets, insert
// {Selects: 24, Inserts: 39, InsertedRows: 25, DDL: 48} and retract
// {Selects: 32, Inserts: 41, InsertedRows: 1048, Deletes: 1, DDL: 56}.
// The factored view keeps the reachable nodes and the answer, not an
// ancestor tuple per reachable node and descendant.
func TestStatementCountsPinned(t *testing.T) {
	const rules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`
	delta := func(d *db.DB, f func()) db.Stats {
		b := d.StatsSnapshot()
		f()
		a := d.StatsSnapshot()
		return db.Stats{
			Selects:      a.Selects - b.Selects,
			Inserts:      a.Inserts - b.Inserts,
			InsertedRows: a.InsertedRows - b.InsertedRows,
			Deletes:      a.Deletes - b.Deletes,
			DDL:          a.DDL - b.DDL,
		}
	}
	check := func(name string, got, want db.Stats) {
		t.Helper()
		if got != want {
			t.Errorf("%s: statement counts %+v, pinned %+v", name, got, want)
		}
	}

	tb := NewMemory()
	defer tb.Close()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(10)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(rules)
	for _, tc := range []struct {
		name, query string
		opts        QueryOptions
		rows        int
		want        db.Stats
	}{
		{"naive", "?- ancestor(X, W).", QueryOptions{Naive: true, NoOptimize: true}, 8194,
			db.Stats{Selects: 14, Inserts: 31, InsertedRows: 112690, Deletes: 10, DDL: 24}},
		{"semi-naive", "?- ancestor(X, W).", QueryOptions{NoOptimize: true}, 8194,
			db.Stats{Selects: 13, Inserts: 20, InsertedRows: 24582, DDL: 24}},
		{"magic semi-naive", "?- ancestor(t1, W).", QueryOptions{}, 1022,
			db.Stats{Selects: 23, Inserts: 41, InsertedRows: 19456, DDL: 48}},
	} {
		opts := tc.opts
		got := delta(tb.DB(), func() {
			if res := queryMagic(t, tb, tc.query, &opts); len(res.Rows) != tc.rows {
				t.Fatalf("%s: %d rows, want %d", tc.name, len(res.Rows), tc.rows)
			}
		})
		check(tc.name, got, tc.want)
	}

	// One maintained insert and one maintained retract: a fresh leaf
	// under the tree's last node, through the commit path.
	mtb := NewMemory()
	if err := mtb.AssertTuples("parent", workload.FullBinaryTree(10)); err != nil {
		t.Fatal(err)
	}
	mtb.MustLoad(rules)
	c := NewConcurrent(mtb)
	defer c.Close()
	const q = "?- ancestor(t1, W)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	adoptView(t, c, q, "parent(zz1, zz2)")
	maintained := func(rows int) {
		t.Helper()
		res, err := c.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "maintained" || len(res.Rows) != rows {
			t.Fatalf("cache=%q rows=%d, want maintained/%d", res.Cache, len(res.Rows), rows)
		}
	}
	got := delta(mtb.DB(), func() {
		if err := c.Load("parent(t1023, fresh)."); err != nil {
			t.Fatal(err)
		}
	})
	maintained(1023)
	check("maintained insert", got, db.Stats{Selects: 6, Inserts: 9, InsertedRows: 7, DDL: 12})
	got = delta(mtb.DB(), func() {
		if n, err := c.RetractSrc("parent(t1023, fresh)"); err != nil || n != 1 {
			t.Fatalf("retract: %d, %v", n, err)
		}
	})
	maintained(1022)
	check("maintained retract", got, db.Stats{Selects: 13, Inserts: 11, InsertedRows: 1030, Deletes: 1, DDL: 20})
}
