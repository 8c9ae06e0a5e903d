package dkbms

import (
	"testing"

	"dkbms/internal/db"
	"dkbms/internal/workload"
)

// TestStatementCountsPinned pins what the evaluation path *does* to the
// DBMS, as statement counts, on the EXPERIMENTS.md Test 6 workload
// (ancestor over the 1022-edge full binary tree). The paper's Tests 5–7
// measure exactly this traffic — temp-table DDL, INSERT ... SELECT rule
// bodies, termination SELECTs — so a refactor of the LFP machinery that
// changes a constant here has changed what those experiments measure,
// whether or not the answers still agree.
//
// The three rows were captured at the commit before the shared fixpoint
// driver and must not move. They compile with generalized magic sets
// forced (queryMagic), as the paper's experiments do.
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
}
