package db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dkbms/internal/obs"
	"dkbms/internal/plan"
	"dkbms/internal/rel"
)

var parentSchema = rel.MustSchema(
	rel.Column{Name: "par", Type: rel.TypeString},
	rel.Column{Name: "chd", Type: rel.TypeString},
)

func mustPrepare(t *testing.T, d *DB, stmt string, params ...*rel.Schema) *Stmt {
	t.Helper()
	st, err := d.Prepare(stmt, params...)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", stmt, err)
	}
	return st
}

// spanShape renders a span tree without its timings: names, attributes
// and nesting, which is what a traced statement reports of its plan.
func spanShape(s *obs.Span, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat("  ", depth) + s.Name)
	for _, a := range s.Attrs {
		if !strings.HasSuffix(a.Key, "_us") && !strings.HasSuffix(a.Key, "_ns") {
			b.WriteString(" " + a.Key + "=" + a.Value())
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		spanShape(c, depth+1, b)
	}
}

// managerTables creates the stored D/KB's system relations the
// Knowledge Manager's prepared reads go to, as stored.Open does (with
// its indexes unless noIndexes), holding a small rule base: anc over
// parent, sib over parent, cousin over sib.
func managerTables(t *testing.T, d *DB, noIndexes bool) {
	t.Helper()
	mustExec(t, d,
		"CREATE TABLE rulesource (headpredname CHAR, ruleid INTEGER, ruletext CHAR)",
		"CREATE TABLE reachablepreds (frompredname CHAR, topredname CHAR)",
		"CREATE TABLE edbcols (predname CHAR, colno INTEGER, coltype CHAR)",
		"INSERT INTO rulesource VALUES ('anc', 1, 'anc(X, Y) :- parent(X, Y).'), ('anc', 2, 'anc(X, Y) :- parent(X, Z), anc(Z, Y).'), "+
			"('sib', 3, 'sib(X, Y) :- parent(Z, X), parent(Z, Y).'), ('cousin', 4, 'cousin(X, Y) :- sib(X, Y).')",
		"INSERT INTO reachablepreds VALUES ('anc', 'parent'), ('anc', 'anc'), ('sib', 'parent'), ('cousin', 'sib'), ('cousin', 'parent')",
		"INSERT INTO edbcols VALUES ('parent', 1, 'CHAR'), ('parent', 0, 'CHAR'), ('age', 0, 'INTEGER')",
	)
	if !noIndexes {
		mustExec(t, d,
			"CREATE INDEX rulesource_head ON rulesource (headpredname)",
			"CREATE INDEX reachable_from ON reachablepreds (frompredname)",
			"CREATE INDEX reachable_to ON reachablepreds (topredname)",
			"CREATE INDEX edbcols_pred ON edbcols (predname)",
		)
	}
}

// extraction is the Knowledge Manager's rule extraction over preds, the
// k-th written as lit(k): per predicate, its rules and those of every
// predicate it reaches.
func extraction(preds []string, lit func(k int) string) string {
	var parts []string
	for k := range preds {
		parts = append(parts, "SELECT ruleid, ruletext FROM rulesource WHERE headpredname = "+lit(k),
			"SELECT rs.ruleid, rs.ruletext FROM reachablepreds rp, rulesource rs WHERE rp.frompredname = "+lit(k)+" AND rs.headpredname = rp.topredname")
	}
	return strings.Join(parts, " UNION ")
}

// TestStmtMatchesTextPath runs statements once as text and once
// prepared with every table a parameter and every value of a manager
// read a value parameter: same rows, same statement counters, same
// traced operator tree. The manager's reads run with the system indexes
// (the tree reads them through an index) and without (it scans).
func TestStmtMatchesTextPath(t *testing.T) {
	ctx := context.Background()
	strs := func(ss ...string) []rel.Value {
		vals := make([]rel.Value, len(ss))
		for i, s := range ss {
			vals[i] = rel.NewString(s)
		}
		return vals
	}
	quoted := func(preds []string) func(int) string { return func(k int) string { return "'" + preds[k] + "'" } }
	param := func(k int) string { return fmt.Sprintf("?%d", k+1) }
	one, three := []string{"cousin"}, []string{"anc", "sib", "cousin"}
	// A compile's widest frontier (Table 4 at R_r = 20): three predicates
	// with rules among seventeen without.
	twenty := append([]string(nil), three...)
	for len(twenty) < 20 {
		twenty = append(twenty, fmt.Sprintf("base%d", len(twenty)))
	}
	for _, tc := range []struct {
		text, prepared string
		tables         []string
		// vals are the values of a manager read's ?1..?n.
		vals []rel.Value
	}{
		{"SELECT chd FROM parent WHERE par = 'john'",
			"SELECT chd FROM $1 WHERE par = 'john'", []string{"parent"}, nil},
		{"SELECT DISTINCT p.par, c.chd FROM parent p, parent c WHERE p.chd = c.par",
			"SELECT DISTINCT p.par, c.chd FROM $1 p, $1 c WHERE p.chd = c.par", []string{"parent"}, nil},
		{"SELECT COUNT(*) FROM parent", "SELECT COUNT(*) FROM $1", []string{"parent"}, nil},
		{"INSERT INTO seen SELECT DISTINCT p.par, c.chd FROM parent p, parent c WHERE p.chd = c.par EXCEPT SELECT * FROM known EXCEPT SELECT * FROM seen",
			"INSERT INTO $3 SELECT DISTINCT p.par, c.chd FROM $1 p, $1 c WHERE p.chd = c.par EXCEPT SELECT * FROM $2 EXCEPT SELECT * FROM $3",
			[]string{"parent", "known", "seen"}, nil},
		{"INSERT INTO seen SELECT * FROM parent", "INSERT INTO $1 SELECT * FROM $2", []string{"seen", "parent"}, nil},
		{"SELECT colno, coltype FROM edbcols WHERE predname = 'parent'",
			"SELECT colno, coltype FROM edbcols WHERE predname = ?1", nil, strs("parent")},
		{"SELECT topredname FROM reachablepreds WHERE frompredname = 'cousin'",
			"SELECT topredname FROM reachablepreds WHERE frompredname = ?1", nil, strs("cousin")},
		{"SELECT frompredname FROM reachablepreds WHERE topredname = 'parent'",
			"SELECT frompredname FROM reachablepreds WHERE topredname = ?1", nil, strs("parent")},
		{extraction(one, quoted(one)), extraction(one, param), nil, strs(one...)},
		{extraction(three, quoted(three)), extraction(three, param), nil, strs(three...)},
		{extraction(twenty, quoted(twenty)), extraction(twenty, param), nil, strs(twenty...)},
	} {
		run := func(prepared, noIndexes bool) (rows []string, stats Stats, shape string) {
			d := family(t)
			mustExec(t, d, "CREATE TABLE known (par CHAR, chd CHAR)", "CREATE TABLE seen (par CHAR, chd CHAR)",
				"INSERT INTO known VALUES ('john','ann')")
			managerTables(t, d, noIndexes)
			text, tables, vals := tc.text, []string(nil), []rel.Value(nil)
			var params []*rel.Schema
			if prepared {
				text, tables, vals = tc.prepared, tc.tables, tc.vals
				params = make([]*rel.Schema, len(tc.tables))
				for i := range params {
					params[i] = parentSchema
				}
			}
			st := mustPrepare(t, d, text, params...)
			before := d.StatsSnapshot()
			tr := obs.NewTrace("stmt")
			var res *Rows
			var err error
			if strings.HasPrefix(tc.text, "INSERT") {
				err = st.Exec(ctx, d, tr.Root(), vals, tables...)
			} else {
				res, err = st.Query(ctx, d, tr.Root(), vals, tables...)
			}
			if err != nil {
				t.Fatalf("%s (prepared=%v): %v", tc.text, prepared, err)
			}
			after := d.StatsSnapshot()
			if res == nil {
				res = mustQuery(t, d, "SELECT * FROM seen")
			}
			var b strings.Builder
			spanShape(tr.Root(), 0, &b)
			return rowStrings(res), Stats{
				Selects: after.Selects - before.Selects, Inserts: after.Inserts - before.Inserts,
				InsertedRows: after.InsertedRows - before.InsertedRows, Deletes: after.Deletes - before.Deletes,
				DDL: after.DDL - before.DDL,
			}, b.String()
		}
		for _, noIndexes := range []bool{false, true} {
			if noIndexes && tc.vals == nil {
				continue
			}
			rows, stats, shape := run(false, noIndexes)
			pRows, pStats, pShape := run(true, noIndexes)
			if strings.Join(rows, "|") != strings.Join(pRows, "|") || len(rows) == 0 {
				t.Errorf("%s: rows %v, prepared %v", tc.text, rows, pRows)
			}
			if stats != pStats {
				t.Errorf("%s: counters %+v, prepared %+v", tc.text, stats, pStats)
			}
			if shape != pShape || !strings.Contains(shape, "rows=") {
				t.Errorf("%s: trace\n%s\nprepared\n%s", tc.text, shape, pShape)
			}
			if indexed := strings.Contains(shape, "idxscan("); tc.vals != nil && (indexed == noIndexes || noIndexes && !strings.Contains(shape, "scan(")) {
				t.Errorf("%s (no indexes: %v): the manager read's tree\n%s", tc.text, noIndexes, shape)
			}
		}
	}
}

// TestStmtRebinds: one statement, executed against different tables and
// against one table as it grows — every execution plans against the
// state it finds.
func TestStmtRebinds(t *testing.T) {
	ctx := context.Background()
	d := family(t)
	mustExec(t, d, "CREATE TABLE other (par CHAR, chd CHAR)", "INSERT INTO other VALUES ('x','y')")
	count := mustPrepare(t, d, "SELECT COUNT(*) FROM $1", parentSchema)
	for _, tc := range []struct {
		table string
		want  int64
	}{{"parent", 5}, {"other", 1}} {
		if n, err := count.QueryCount(ctx, d, nil, nil, tc.table); err != nil || n != tc.want {
			t.Fatalf("COUNT(%s) = %d, %v; want %d", tc.table, n, err, tc.want)
		}
	}
	mustExec(t, d, "INSERT INTO other VALUES ('y','z')")
	if n, err := count.QueryCount(ctx, d, nil, nil, "other"); err != nil || n != 2 {
		t.Fatalf("after insert: %d, %v", n, err)
	}
	// A named table is re-resolved per execution too.
	named := mustPrepare(t, d, "SELECT * FROM other")
	mustExec(t, d, "DROP TABLE other", "CREATE TABLE other (par CHAR, chd CHAR)")
	if rows, err := named.Query(ctx, d, nil, nil); err != nil || len(rows.Tuples) != 0 {
		t.Fatalf("re-created table: %v, %v", rows, err)
	}
}

// TestStmtErrors: what Prepare refuses, and the typed error of a bind
// that does not fit.
func TestStmtErrors(t *testing.T) {
	ctx := context.Background()
	d := family(t)
	mustExec(t, d, "CREATE TABLE nums (n INTEGER)")
	one := []*rel.Schema{parentSchema}
	for _, bad := range []struct {
		stmt   string
		params []*rel.Schema
	}{
		{"DELETE FROM parent", nil},
		{"INSERT INTO parent VALUES ('a','b')", nil},
		{"CREATE TABLE t (a INT)", nil},
		{"SELEKT x", nil},
		{"SELECT x FROM ghost", nil},
		{"SELECT * FROM $1", nil},                    // no schema declared
		{"SELECT * FROM $1", []*rel.Schema{nil}},     // nor here
		{"INSERT INTO $2 SELECT * FROM parent", one}, // nor for $2
		{"SELECT * FROM parent WHERE par = $1", one}, // not a table position
		{"INSERT INTO $1 VALUES ('a','b')", one},     // a parameter target takes a SELECT
		{"DELETE FROM $1", one},                      // not preparable
		{"SELECT nosuch FROM $1", one},               // checked against the declared schema
		{"SELECT * FROM $1 WHERE par = 1", one},      // typed at prepare
		{"SELECT t.par FROM $1 t, parent t", one},    // duplicate alias
		{"SELECT a.par FROM parent a, parent $1", one},
	} {
		if _, err := d.Prepare(bad.stmt, bad.params...); err == nil {
			t.Errorf("Prepare(%q) succeeded", bad.stmt)
		}
	}
	for _, text := range []string{"SELECT * FROM $1", "INSERT INTO $1 SELECT * FROM parent", "INSERT INTO parent SELECT * FROM $1"} {
		_, qerr := d.Query(text)
		if eerr := d.Exec(text); qerr == nil || eerr == nil {
			t.Errorf("text path ran %q: %v, %v", text, qerr, eerr)
		}
	}

	sel := mustPrepare(t, d, "SELECT chd FROM $1 WHERE par = 'john'", parentSchema)
	ins := mustPrepare(t, d, "INSERT INTO $1 SELECT * FROM $2", parentSchema, parentSchema)
	if err := sel.Exec(ctx, d, nil, nil, "parent"); err == nil {
		t.Error("Exec ran a prepared SELECT")
	}
	if _, err := ins.Query(ctx, d, nil, nil, "parent", "parent"); err == nil {
		t.Error("Query ran a prepared INSERT")
	}
	if _, err := sel.Query(ctx, d, nil, nil); err == nil {
		t.Error("Query ran with a parameter unbound")
	}
	var be *plan.BindError
	if _, err := sel.Query(ctx, d, nil, nil, "ghost"); !errors.As(err, &be) || be.Got != nil || be.Ref != "$1" {
		t.Errorf("missing table: %v", err)
	}
	if _, err := sel.Query(ctx, d, nil, nil, "nums"); !errors.As(err, &be) || be.Got == nil {
		t.Errorf("wrong schema: %v", err)
	}
	if err := ins.Exec(ctx, d, nil, nil, "nums", "parent"); !errors.As(err, &be) || be.Ref != "$1" {
		t.Errorf("wrong target schema: %v", err)
	}
	if err := ins.Exec(ctx, d, nil, nil, "ghost", "parent"); err == nil {
		t.Error("insert into a missing table succeeded")
	}
	if n := d.TableRows("nums"); n != 0 {
		t.Errorf("a failed bind wrote %d rows", n)
	}
}

// TestStmtConcurrent executes one prepared statement from 8 goroutines
// (run under -race): a Stmt is immutable after Prepare.
func TestStmtConcurrent(t *testing.T) {
	ctx := context.Background()
	d := family(t)
	mustExec(t, d, "CREATE TABLE other (par CHAR, chd CHAR)", "INSERT INTO other VALUES ('mary','zoe')")
	st := mustPrepare(t, d, "SELECT DISTINCT p.par, c.chd FROM $1 p, $2 c WHERE p.chd = c.par", parentSchema, parentSchema)
	want := map[string]int{"parent": 3, "other": 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			second := []string{"parent", "other"}[g%2]
			for i := 0; i < 100; i++ {
				rows, err := st.Query(ctx, d, nil, nil, "parent", second)
				if err != nil || len(rows.Tuples) != want[second] {
					t.Errorf("goroutine %d: %v, %v", g, rows, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := d.StatsSnapshot().Selects; got != 800 {
		t.Errorf("Selects = %d, want 800", got)
	}
}

// TestTypedDDL: CreateTempTable and DropTable take the name as written
// and count as DDL statements.
func TestTypedDDL(t *testing.T) {
	d := OpenMemory()
	before := d.StatsSnapshot().DDL
	if err := d.CreateTempTable("Scratch_1", parentSchema); err != nil {
		t.Fatal(err)
	}
	if tb := d.Table("Scratch_1"); tb == nil || !tb.Temp || tb.Schema != parentSchema {
		t.Fatalf("temp table: %+v", tb)
	}
	if err := d.CreateTempTable("Scratch_1", parentSchema); err == nil {
		t.Error("created a table twice")
	}
	if err := d.InsertTuples("Scratch_1", []rel.Tuple{{rel.NewString("a"), rel.NewString("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("Scratch_1"); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("Scratch_1"); err == nil {
		t.Error("dropped a table twice")
	}
	if got := d.StatsSnapshot().DDL - before; got != 4 {
		t.Errorf("DDL counted %d, want 4", got)
	}
}

// TestPrepareHitAllocs: a Prepare the statement cache answers renders
// no key — it finds the entry by text and compares the parameter
// schemas by structure — and returns the cached statement itself,
// allocating nothing, on the database that prepared it and on a view
// of it alike: a hit on a view is the root's *Stmt. The text is cached
// under two lists of parameter schemas, and the hit's schemas are equal
// to the cached ones without being the same objects.
//
// Pinned 1 on a view while a hit there allocated a handle of two words
// (the view and the statement), and 1 on the root database while every
// hit did; the run-time library prepares each statement of a run once
// per use, about one hit per evaluated node.
func TestPrepareHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	d := OpenMemory()
	const text = "INSERT INTO $3 SELECT DISTINCT p.par, e.chd FROM $1 p, $2 e WHERE p.chd = e.par EXCEPT SELECT * FROM $3"
	other := rel.MustSchema(rel.Column{Name: "par", Type: rel.TypeInt}, rel.Column{Name: "chd", Type: rel.TypeInt})
	mustPrepare(t, d, text, other, other, other)
	mustPrepare(t, d, text, parentSchema, parentSchema, parentSchema)
	same := rel.MustSchema(rel.Column{Name: "par", Type: rel.TypeString}, rel.Column{Name: "chd", Type: rel.TypeString})
	params := []*rel.Schema{same, same, same}
	parses := d.StatsSnapshot().Parses
	view := d.View(pinned{}, nil)
	for _, c := range []struct {
		on   *DB
		name string
	}{{d, "the root database"}, {view, "a view"}} {
		var st *Stmt
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if st, err = c.on.Prepare(text, params...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a cached Prepare on %s allocates %.0f objects, want 0", c.name, allocs)
		}
		if want := mustPrepare(t, d, text, parentSchema, parentSchema, parentSchema); st != want {
			t.Errorf("the hit on %s is not the root's statement for (par, chd)", c.name)
		}
	}
	if n := d.StatsSnapshot().Parses - parses; n != 0 {
		t.Errorf("cached Prepares parsed %d statements", n)
	}
	if d.CachedStatements() != 2 {
		t.Errorf("%d statements are cached, want 2", d.CachedStatements())
	}
}

// TestPreparedDelete: a DELETE prepared once, its WHERE value a
// parameter, deletes at each execution what the ad-hoc DELETE with the
// value written in deletes, index maintained, and counts as a DELETE.
// A DELETE without a WHERE is not preparable (TestStmtErrors), and a
// prepared one is not a query.
func TestPreparedDelete(t *testing.T) {
	ctx := context.Background()
	want, d := family(t), family(t)
	for _, db := range []*DB{want, d} {
		mustExec(t, db, "CREATE INDEX parent_par ON parent (par)")
	}
	del := mustPrepare(t, d, "DELETE FROM parent WHERE par = ?1")
	if _, err := del.Query(ctx, d, nil, []rel.Value{rel.NewString("john")}); err == nil {
		t.Error("Query ran a prepared DELETE")
	}
	for _, par := range []string{"john", "nobody", "mary", "john"} {
		before := d.StatsSnapshot().Deletes
		if err := del.Exec(ctx, d, nil, []rel.Value{rel.NewString(par)}); err != nil {
			t.Fatal(err)
		}
		mustExec(t, want, "DELETE FROM parent WHERE par = '"+par+"'")
		if n := d.StatsSnapshot().Deletes - before; n != 1 {
			t.Errorf("DELETE of %s counted %d deletes", par, n)
		}
		for _, q := range []string{"SELECT * FROM parent", "SELECT chd FROM parent WHERE par = 'bob'", "SELECT chd FROM parent WHERE par = '" + par + "'"} {
			if got, w := rowStrings(mustQuery(t, d, q)), rowStrings(mustQuery(t, want, q)); strings.Join(got, ";") != strings.Join(w, ";") {
				t.Errorf("after deleting %s, %s: %v, the ad-hoc DELETE leaves %v", par, q, got, w)
			}
		}
	}
}

// TestQueryCountAllocatesNothing: a warm prepared SELECT COUNT(*) over
// a temp table reads its count from the COUNT(*) operator after a
// counting pass of the kept tree, so it allocates nothing — at 10 rows
// as at 1 000 — returns the table's row count and is one SELECT.
func TestQueryCountAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	d := OpenMemory()
	defer d.Close()
	count := mustPrepare(t, d, "SELECT COUNT(*) FROM $1", parentSchema)
	for _, rows := range []int{10, 1000} {
		name := fmt.Sprintf("delta%d", rows)
		if err := d.CreateTempTable(name, parentSchema); err != nil {
			t.Fatal(err)
		}
		tuples := make([]rel.Tuple, rows)
		for i := range tuples {
			tuples[i] = rel.Tuple{rel.NewString(fmt.Sprintf("p%d", i)), rel.NewString(fmt.Sprintf("c%d", i))}
		}
		if err := d.InsertTuples(name, tuples); err != nil {
			t.Fatal(err)
		}
		var n int64
		run := func() {
			var err error
			if n, err = count.QueryCount(ctx, d, nil, nil, name); err != nil {
				t.Fatal(err)
			}
		}
		run() // binds the kept tree to the table
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%d rows: a warm QueryCount allocates %.2f objects, want 0", rows, allocs)
		}
		if n != int64(d.TableRows(name)) || n != int64(rows) {
			t.Errorf("%d rows: COUNT(*) = %d, TableRows = %d", rows, n, d.TableRows(name))
		}
		before := d.StatsSnapshot().Selects
		run()
		if got := d.StatsSnapshot().Selects - before; got != 1 {
			t.Errorf("%d rows: one QueryCount counted %d SELECTs, want 1", rows, got)
		}
	}
}

// TestStmtScan: a prepared SELECT's streamed records are the rows Query
// returns, in order — a scan, a filtered scan, a join and the Knowledge
// Manager's reads, its extraction's UNION among them, over the system
// relations with and without their indexes — each Scan is one SELECT,
// and a traced Scan records the operator tree a traced Query does.
func TestStmtScan(t *testing.T) {
	ctx := context.Background()
	for _, noIndexes := range []bool{false, true} {
		d := OpenMemory()
		mustExec(t, d, "CREATE TABLE parent (par CHAR, chd CHAR)",
			"INSERT INTO parent VALUES ('john', 'mary'), ('mary', 'sue'), ('john', 'bob'), ('bob', 'ann')")
		managerTables(t, d, noIndexes)
		three := []string{"anc", "sib", "cousin"}
		for _, c := range []struct {
			text   string
			tables []string
			vals   []rel.Value
		}{
			{"SELECT * FROM $1", []string{"parent"}, nil},
			{"SELECT chd FROM $1 WHERE par = ?1", []string{"parent"}, []rel.Value{rel.NewString("john")}},
			{"SELECT DISTINCT p.par, c.chd FROM $1 p, $1 c WHERE p.chd = c.par", []string{"parent"}, nil},
			{"SELECT colno, coltype FROM edbcols WHERE predname = ?1", nil, []rel.Value{rel.NewString("parent")}},
			{"SELECT topredname FROM reachablepreds WHERE frompredname = ?1", nil, []rel.Value{rel.NewString("cousin")}},
			{extraction(three, func(k int) string { return fmt.Sprintf("?%d", k+1) }), nil,
				[]rel.Value{rel.NewString("anc"), rel.NewString("sib"), rel.NewString("cousin")}},
		} {
			params := make([]*rel.Schema, len(c.tables))
			for i := range params {
				params[i] = parentSchema
			}
			st := mustPrepare(t, d, c.text, params...)
			for _, traced := range []bool{false, true} {
				var qsp, ssp *obs.Span
				if traced {
					qsp, ssp = obs.NewTrace("q").Root(), obs.NewTrace("q").Root()
				}
				rows, err := st.Query(ctx, d, qsp, c.vals, c.tables...)
				if err != nil {
					t.Fatal(err)
				}
				var got []rel.Tuple
				decode := func(rec []byte) error {
					tu, err := rel.DecodeTuple(rec, rows.Schema)
					got = append(got, tu)
					return err
				}
				before := d.StatsSnapshot().Selects
				if err := st.Scan(ctx, d, ssp, c.vals, decode, c.tables...); err != nil {
					t.Fatal(err)
				}
				if n := d.StatsSnapshot().Selects - before; n != 1 {
					t.Errorf("%s: Scan counted %d SELECTs, want 1", c.text, n)
				}
				if g, w := fmt.Sprint(got), fmt.Sprint(rows.Tuples); g != w {
					t.Errorf("%s (indexes %v, traced %v): Scan passes %v, Query returns %v", c.text, !noIndexes, traced, g, w)
				}
				if traced {
					var qs, ss strings.Builder
					spanShape(qsp, 0, &qs)
					spanShape(ssp, 0, &ss)
					if qs.String() != ss.String() {
						t.Errorf("%s: a traced Scan records\n%s\na traced Query\n%s", c.text, ss.String(), qs.String())
					}
				}
			}
		}
		d.Close()
	}
}

// TestStmtScanAllocatesNothing: a warm prepared SELECT streams its
// records from the kept tree and allocates nothing — a filtered scan
// and a UNION, at 10 rows as at 1 000.
func TestStmtScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	d := OpenMemory()
	defer d.Close()
	var n int
	count := func([]byte) error { n++; return nil }
	vals := []rel.Value{rel.NewString("p")}
	for _, text := range []string{
		"SELECT chd FROM $1 WHERE par = ?1",
		"SELECT chd FROM $1 WHERE par = ?1 UNION SELECT par FROM $1 WHERE par = ?1",
	} {
		st := mustPrepare(t, d, text, parentSchema)
		for _, rows := range []int{10, 1000} {
			name := fmt.Sprintf("t%d", rows)
			if d.Table(name) == nil {
				if err := d.CreateTempTable(name, parentSchema); err != nil {
					t.Fatal(err)
				}
				tuples := make([]rel.Tuple, rows)
				for i := range tuples {
					tuples[i] = rel.Tuple{rel.NewString("p"), rel.NewString(fmt.Sprintf("c%d", i))}
				}
				if err := d.InsertTuples(name, tuples); err != nil {
					t.Fatal(err)
				}
			}
			run := func() {
				n = 0
				if err := st.Scan(ctx, d, nil, vals, count, name); err != nil {
					t.Fatal(err)
				}
			}
			run() // binds the kept tree to the table
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("%s over %d rows: a warm Scan allocates %.2f objects, want 0", text, rows, allocs)
			}
			if n < rows {
				t.Errorf("%s over %d rows: Scan passed %d records", text, rows, n)
			}
		}
	}
}
