package db

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/rel"
)

func mustExec(t *testing.T, d *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if err := d.Exec(s); err != nil {
			t.Fatalf("Exec(%q): %v", s, err)
		}
	}
}

func mustQuery(t *testing.T, d *DB, q string) *Rows {
	t.Helper()
	rows, err := d.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return rows
}

// rowStrings renders and sorts result tuples for order-insensitive
// comparison.
func rowStrings(rows *Rows) []string {
	out := make([]string, len(rows.Tuples))
	for i, tu := range rows.Tuples {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return out
}

func wantRows(t *testing.T, rows *Rows, want ...string) {
	t.Helper()
	got := rowStrings(rows)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s, want %s (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func family(t *testing.T) *DB {
	t.Helper()
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE parent (par CHAR, chd CHAR)",
		"INSERT INTO parent VALUES ('john','mary'), ('john','bob'), ('mary','ann'), ('mary','tom'), ('bob','lea')",
	)
	return d
}

func TestSelectAll(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d, "SELECT * FROM parent")
	if len(rows.Tuples) != 5 {
		t.Fatalf("%d rows", len(rows.Tuples))
	}
	if rows.Schema.String() != "(par CHAR, chd CHAR)" {
		t.Fatalf("schema %v", rows.Schema)
	}
}

func TestSelectWhereEquality(t *testing.T) {
	d := family(t)
	wantRows(t, mustQuery(t, d, "SELECT chd FROM parent WHERE par = 'mary'"), "(ann)", "(tom)")
}

func TestSelectProjectionAndAlias(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d, "SELECT chd AS kid, par FROM parent WHERE par = 'john'")
	if rows.Schema.Col(0).Name != "kid" || rows.Schema.Col(1).Name != "par" {
		t.Fatalf("schema %v", rows.Schema)
	}
	wantRows(t, rows, "(mary, john)", "(bob, john)")
}

func TestSelfJoinGrandparents(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d,
		"SELECT t0.par, t1.chd FROM parent t0, parent t1 WHERE t0.chd = t1.par")
	wantRows(t, rows,
		"(john, ann)", "(john, tom)", "(john, lea)",
		// john->bob->lea and john->mary->{ann,tom}
	)
}

func TestThreeWayJoin(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d,
		"SELECT t0.par, t2.chd FROM parent t0, parent t1, parent t2 WHERE t0.chd = t1.par AND t1.chd = t2.par")
	wantRows(t, rows) // john->mary->ann has no children; john->bob->lea has none; so empty
}

func TestJoinWithConstantBinding(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d,
		"SELECT t1.chd FROM parent t0, parent t1 WHERE t0.par = 'john' AND t0.chd = t1.par")
	wantRows(t, rows, "(ann)", "(tom)", "(lea)")
}

func TestDistinct(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d, "SELECT DISTINCT par FROM parent")
	wantRows(t, rows, "(john)", "(mary)", "(bob)")
}

func TestCountStar(t *testing.T) {
	d := family(t)
	n, err := d.QueryCount("SELECT COUNT(*) FROM parent WHERE par = 'john'")
	if err != nil || n != 2 {
		t.Fatalf("count = %d, %v", n, err)
	}
	n, err = d.QueryCount("SELECT COUNT(*) FROM parent")
	if err != nil || n != 5 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestComparisonOperators(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE nums (n INTEGER)",
		"INSERT INTO nums VALUES (1), (2), (3), (4), (5)",
	)
	cases := []struct {
		where string
		want  int
	}{
		{"n = 3", 1}, {"n <> 3", 4}, {"n < 3", 2}, {"n <= 3", 3},
		{"n > 3", 2}, {"n >= 3", 3}, {"n > 1 AND n < 5", 3},
		{"n = 1 OR n = 5", 2}, {"NOT n = 3", 4},
		{"n >= 2 AND (n = 2 OR n = 4)", 2},
	}
	for _, c := range cases {
		rows := mustQuery(t, d, "SELECT n FROM nums WHERE "+c.where)
		if len(rows.Tuples) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(rows.Tuples), c.want)
		}
	}
}

func TestSetOperations(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE a (x INTEGER)", "CREATE TABLE b (x INTEGER)",
		"INSERT INTO a VALUES (1), (2), (3), (3)",
		"INSERT INTO b VALUES (3), (4)",
	)
	wantRows(t, mustQuery(t, d, "SELECT x FROM a UNION SELECT x FROM b"), "(1)", "(2)", "(3)", "(4)")
	rows := mustQuery(t, d, "SELECT x FROM a UNION ALL SELECT x FROM b")
	if len(rows.Tuples) != 6 {
		t.Fatalf("union all: %d", len(rows.Tuples))
	}
	wantRows(t, mustQuery(t, d, "SELECT x FROM a EXCEPT SELECT x FROM b"), "(1)", "(2)")
	wantRows(t, mustQuery(t, d, "SELECT x FROM a INTERSECT SELECT x FROM b"), "(3)")
	// Left-associative chains.
	wantRows(t, mustQuery(t, d,
		"SELECT x FROM a EXCEPT SELECT x FROM b UNION SELECT x FROM b"), "(1)", "(2)", "(3)", "(4)")
}

func TestSetOpIncompatible(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE a (x INTEGER)", "CREATE TABLE s (y CHAR)",
		"INSERT INTO a VALUES (1)", "INSERT INTO s VALUES ('q')",
	)
	if _, err := d.Query("SELECT x FROM a UNION SELECT y FROM s"); err == nil {
		t.Fatal("incompatible union accepted")
	}
}

func TestInsertSelect(t *testing.T) {
	d := family(t)
	mustExec(t, d,
		"CREATE TABLE anc (a CHAR, d CHAR)",
		"INSERT INTO anc SELECT par, chd FROM parent",
	)
	if n := d.TableRows("anc"); n != 5 {
		t.Fatalf("anc rows = %d", n)
	}
	// Self-referential insert sees a stable snapshot.
	mustExec(t, d, "INSERT INTO anc SELECT a, d FROM anc")
	if n := d.TableRows("anc"); n != 10 {
		t.Fatalf("anc rows after self-insert = %d", n)
	}

	// So does one whose scans are lent — a Project's input, a hash
	// join's probe side — and read a page per Next, over a table of
	// several pages, indexed or not.
	for _, stmt := range []string{
		"INSERT INTO big SELECT k, v FROM big",
		"INSERT INTO big SELECT x.k, y.v FROM big x, big y WHERE x.k = y.k AND y.v <= 0",
	} {
		for _, indexed := range []bool{false, true} {
			mustExec(t, d, "CREATE TABLE big (k INTEGER, v INTEGER)")
			if indexed {
				mustExec(t, d, "CREATE INDEX big_v ON big (v)")
			}
			tab := d.Table("big")
			for i := 0; i < 1000; i++ {
				if _, err := tab.Insert(rel.Tuple{rel.NewInt(int64(i)), rel.NewInt(int64(-i))}); err != nil {
					t.Fatal(err)
				}
			}
			if n := heapPages(t, tab); n < 3 {
				t.Fatalf("big lies on %d heap pages, want 3 or more", n)
			}
			mustExec(t, d, stmt)
			if n := d.TableRows("big"); n != 2000 {
				t.Errorf("%s, indexed=%v: %d rows after the self-insert, want 2000", stmt, indexed, n)
			}
			mustExec(t, d, "DROP TABLE big")
		}
	}
}

func TestInsertSelectTypeMismatch(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE a (x INTEGER)", "CREATE TABLE s (y CHAR)",
		"INSERT INTO s VALUES ('q')",
	)
	if err := d.Exec("INSERT INTO a SELECT y FROM s"); err == nil {
		t.Fatal("type-incompatible INSERT SELECT accepted")
	}
}

func TestDelete(t *testing.T) {
	d := family(t)
	mustExec(t, d, "DELETE FROM parent WHERE par = 'mary'")
	if n := d.TableRows("parent"); n != 3 {
		t.Fatalf("rows after delete = %d", n)
	}
	mustExec(t, d, "DELETE FROM parent")
	if n := d.TableRows("parent"); n != 0 {
		t.Fatalf("rows after delete-all = %d", n)
	}
}

func TestIndexedQueryCorrectness(t *testing.T) {
	// The same queries must return identical results with and without
	// an index (access-path selection must not change semantics).
	build := func(withIndex bool) *DB {
		d := OpenMemory()
		mustExec(t, d, "CREATE TABLE e (src INTEGER, dst INTEGER)")
		if withIndex {
			mustExec(t, d, "CREATE INDEX e_src ON e (src)")
		}
		r := rand.New(rand.NewSource(11))
		var stmts []string
		for i := 0; i < 500; i++ {
			stmts = append(stmts, fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", r.Intn(50), r.Intn(50)))
		}
		mustExec(t, d, stmts...)
		return d
	}
	plain, indexed := build(false), build(true)
	queries := []string{
		"SELECT dst FROM e WHERE src = 7",
		"SELECT src FROM e WHERE dst = 3 AND src = 7",
		"SELECT DISTINCT t0.src, t1.dst FROM e t0, e t1 WHERE t0.dst = t1.src AND t0.src = 5",
		"SELECT COUNT(*) FROM e WHERE src = 20",
	}
	for _, q := range queries {
		a := rowStrings(mustQuery(t, plain, q))
		b := rowStrings(mustQuery(t, indexed, q))
		if strings.Join(a, "|") != strings.Join(b, "|") {
			t.Errorf("query %q differs with index: %v vs %v", q, a, b)
		}
	}
}

func TestCompositeIndexPrefix(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE r (a CHAR, b CHAR, c INTEGER)",
		"CREATE INDEX r_ab ON r (a, b)",
		"INSERT INTO r VALUES ('x','p',1), ('x','q',2), ('y','p',3)",
	)
	wantRows(t, mustQuery(t, d, "SELECT c FROM r WHERE a = 'x'"), "(1)", "(2)")
	wantRows(t, mustQuery(t, d, "SELECT c FROM r WHERE a = 'x' AND b = 'q'"), "(2)")
}

func TestCrossJoin(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE a (x INTEGER)", "CREATE TABLE b (y INTEGER)",
		"INSERT INTO a VALUES (1), (2)", "INSERT INTO b VALUES (10), (20)",
	)
	rows := mustQuery(t, d, "SELECT x, y FROM a, b")
	if len(rows.Tuples) != 4 {
		t.Fatalf("cross join: %d rows", len(rows.Tuples))
	}
	// Non-equi join predicate (residual on cross product).
	rows = mustQuery(t, d, "SELECT x, y FROM a, b WHERE y > x")
	if len(rows.Tuples) != 4 {
		t.Fatalf("non-equi join: %d rows", len(rows.Tuples))
	}
	// Cross-table OR (residual).
	rows = mustQuery(t, d, "SELECT x, y FROM a, b WHERE x = 1 OR y = 20")
	if len(rows.Tuples) != 3 {
		t.Fatalf("cross-table OR: %d rows", len(rows.Tuples))
	}
}

func TestStarOverJoinDeduplicatesNames(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d, "SELECT * FROM parent t0, parent t1 WHERE t0.chd = t1.par")
	if rows.Schema.Len() != 4 {
		t.Fatalf("schema %v", rows.Schema)
	}
	names := map[string]bool{}
	for _, c := range rows.Schema.Columns() {
		if names[c.Name] {
			t.Fatalf("duplicate column name %s in %v", c.Name, rows.Schema)
		}
		names[c.Name] = true
	}
}

func TestErrors(t *testing.T) {
	d := family(t)
	for _, q := range []string{
		"SELECT nope FROM parent",
		"SELECT par FROM nosuch",
		"SELECT t9.par FROM parent t0",
		"SELECT par FROM parent WHERE par = 5",               // type mismatch
		"SELECT par FROM parent p, parent p WHERE par = 'x'", // dup alias; also ambiguous
	} {
		if _, err := d.Query(q); err == nil {
			t.Errorf("Query(%q) unexpectedly succeeded", q)
		}
	}
	if err := d.Exec("SELECT par FROM parent"); err == nil {
		t.Error("Exec of SELECT accepted")
	}
	if _, err := d.Query("DELETE FROM parent"); err == nil {
		t.Error("Query of DELETE accepted")
	}
	if err := d.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Error("insert into missing table accepted")
	}
	if err := d.Exec("DELETE FROM nosuch"); err == nil {
		t.Error("delete from missing table accepted")
	}
	// Ambiguous unqualified column across two tables.
	if _, err := d.Query("SELECT par FROM parent t0, parent t1 WHERE t0.par = t1.par"); err == nil {
		t.Error("ambiguous column accepted")
	}
}

func TestDropTableIfExists(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d, "DROP TABLE IF EXISTS ghost")
	if err := d.Exec("DROP TABLE ghost"); err == nil {
		t.Fatal("drop of missing table without IF EXISTS accepted")
	}
}

func TestTempTableLifecycle(t *testing.T) {
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TEMP TABLE scratch (x INTEGER)",
		"INSERT INTO scratch VALUES (1), (2)",
	)
	wantRows(t, mustQuery(t, d, "SELECT x FROM scratch"), "(1)", "(2)")
	mustExec(t, d, "DROP TABLE scratch")
	if d.HasTable("scratch") {
		t.Fatal("temp table survived drop")
	}
}

func TestPersistenceEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "family.db")
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d,
		"CREATE TABLE parent (par CHAR, chd CHAR)",
		"CREATE INDEX parent_par ON parent (par)",
		"INSERT INTO parent VALUES ('john','mary'), ('mary','ann')",
	)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	wantRows(t, mustQuery(t, d2, "SELECT chd FROM parent WHERE par = 'john'"), "(mary)")
}

func TestLiteralProjection(t *testing.T) {
	d := family(t)
	rows := mustQuery(t, d, "SELECT 'anc' AS tag, par FROM parent WHERE chd = 'lea'")
	wantRows(t, rows, "(anc, bob)")
	if rows.Schema.Col(0).Type != rel.TypeString {
		t.Fatalf("schema %v", rows.Schema)
	}
}

// TestJoinAgainstReferenceModel cross-checks the planner+executor against
// a brute-force in-memory evaluation over random data and random
// conjunctive queries.
func TestJoinAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	d := OpenMemory()
	mustExec(t, d,
		"CREATE TABLE e (s INTEGER, d INTEGER)",
		"CREATE INDEX e_s ON e (s)",
	)
	type edge struct{ s, dd int }
	var edges []edge
	for i := 0; i < 300; i++ {
		e := edge{r.Intn(20), r.Intn(20)}
		edges = append(edges, e)
		mustExec(t, d, fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", e.s, e.dd))
	}
	for trial := 0; trial < 20; trial++ {
		c := r.Intn(20)
		// Query: SELECT t0.s, t1.d FROM e t0, e t1 WHERE t0.d = t1.s AND t0.s = c
		got := rowStrings(mustQuery(t, d, fmt.Sprintf(
			"SELECT t0.s, t1.d FROM e t0, e t1 WHERE t0.d = t1.s AND t0.s = %d", c)))
		var want []string
		for _, a := range edges {
			if a.s != c {
				continue
			}
			for _, b := range edges {
				if a.dd == b.s {
					want = append(want, fmt.Sprintf("(%d, %d)", a.s, b.dd))
				}
			}
		}
		sort.Strings(want)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("trial %d (c=%d): got %d rows, want %d rows", trial, c, len(got), len(want))
		}
	}
}

func TestStatsCounters(t *testing.T) {
	d := family(t)
	mustQuery(t, d, "SELECT * FROM parent")
	st := d.StatsSnapshot()
	if st.Selects == 0 || st.Inserts == 0 || st.InsertedRows != 5 || st.DDL == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueryCancellation pins the statement-level cancellation point: a
// cancelled context aborts a SELECT's drain (and an INSERT ... SELECT's
// source drain) with ctx.Err() instead of running the statement to
// completion, while a live context leaves results untouched.
func TestQueryCancellation(t *testing.T) {
	d := family(t)
	ctx, cancel := context.WithCancel(context.Background())

	sel := mustPrepare(t, d, "SELECT * FROM parent")
	rows, err := sel.Query(ctx, d, nil, nil)
	if err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	if len(rows.Tuples) != 5 {
		t.Fatalf("live ctx: got %d rows, want 5", len(rows.Tuples))
	}

	cancel()
	if _, err := sel.Query(ctx, d, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SELECT: got %v, want context.Canceled", err)
	}
	mustExec(t, d, "CREATE TABLE copy2 (par CHAR, chd CHAR)")
	if err := mustPrepare(t, d, "INSERT INTO copy2 SELECT * FROM parent").Exec(ctx, d, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled INSERT ... SELECT: got %v, want context.Canceled", err)
	}
	if n := d.TableRows("copy2"); n != 0 {
		t.Fatalf("cancelled INSERT ... SELECT wrote %d rows", n)
	}
}

// TestInsertSelectThroughOwnIndex writes a table through statements that
// read it through its own index — an index scan for the literal, an
// index join for the column equality — while they add postings under
// the very keys they read. The tree's Lookup slice is valid only until
// the next insert shifts the leaf's slab, so the reads must be done
// before the writes start: the table must end as it does when the same
// statements run with the index dropped.
func TestInsertSelectThroughOwnIndex(t *testing.T) {
	run := func(indexed bool) []string {
		d := OpenMemory()
		mustExec(t, d, "CREATE TABLE t (c0 INTEGER, c1 INTEGER, c2 CHAR)")
		if indexed {
			mustExec(t, d, "CREATE INDEX t_c0 ON t (c0)")
		}
		var vals []string
		for i := 0; i < 300; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'r%d')", i%100, i%5, i))
		}
		mustExec(t, d, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		for _, k := range []int{7, 8, 7, 50, 7, 99, 2} {
			mustExec(t, d,
				fmt.Sprintf("INSERT INTO t SELECT * FROM t WHERE c0 = %d", k),
				fmt.Sprintf("INSERT INTO t SELECT a.c0, b.c1, b.c2 FROM t a, t b WHERE a.c0 = %d AND b.c0 = a.c1", k))
		}
		if indexed {
			if st := d.Catalog().Index("t_c0").Stats(); st.Searches == 0 || st.Splits == 0 {
				t.Fatalf("the statements did not read through a splitting index: %+v", st)
			}
		}
		return rowStrings(mustQuery(t, d, "SELECT * FROM t"))
	}
	got, want := run(true), run(false)
	if !slices.Equal(got, want) {
		t.Fatalf("through the index the table ends with %d rows, without it %d", len(got), len(want))
	}
	if len(want) < 400 {
		t.Fatalf("only %d rows: the statements wrote too little to move the slabs", len(want))
	}
}

// TestQueryCountTakesCountStar: QueryCount reads its count off a
// COUNT(*) operator; any other SELECT — one row of one integer
// included — is an error, not a number.
func TestQueryCountTakesCountStar(t *testing.T) {
	d := family(t)
	mustExec(t, d, "CREATE TABLE nums (n INTEGER)", "INSERT INTO nums VALUES (7)")
	for _, q := range []string{
		"SELECT n FROM nums",
		"SELECT * FROM parent",
		"SELECT par FROM parent WHERE chd = 'ann'",
	} {
		if n, err := d.QueryCount(q); err == nil {
			t.Errorf("QueryCount(%q) = %d, want an error", q, n)
		}
	}
	if _, err := d.QueryCount("DELETE FROM nums WHERE n = 7"); err == nil || d.TableRows("nums") != 1 {
		t.Errorf("QueryCount ran a DELETE: %v", err)
	}
}
