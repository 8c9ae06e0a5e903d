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
			var st *Stmt
			if prepared {
				params := make([]*rel.Schema, len(tc.tables))
				for i := range params {
					params[i] = parentSchema
				}
				st = mustPrepare(t, d, tc.prepared, params...)
			}
			before := d.StatsSnapshot()
			tr := obs.NewTrace("stmt")
			var res *Rows
			var err error
			switch insert := strings.HasPrefix(tc.text, "INSERT"); {
			case insert && prepared:
				err = st.Exec(ctx, tr.Root(), nil, tc.tables...)
			case insert:
				err = d.ExecTracedCtx(ctx, tc.text, tr.Root())
			case prepared:
				res, err = st.Query(ctx, tr.Root(), tc.vals, tc.tables...)
			default:
				res, err = d.QueryTracedCtx(ctx, tc.text, tr.Root())
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
		if n, err := count.QueryCount(ctx, nil, nil, tc.table); err != nil || n != tc.want {
			t.Fatalf("COUNT(%s) = %d, %v; want %d", tc.table, n, err, tc.want)
		}
	}
	mustExec(t, d, "INSERT INTO other VALUES ('y','z')")
	if n, err := count.QueryCount(ctx, nil, nil, "other"); err != nil || n != 2 {
		t.Fatalf("after insert: %d, %v", n, err)
	}
	// A named table is re-resolved per execution too.
	named := mustPrepare(t, d, "SELECT * FROM other")
	mustExec(t, d, "DROP TABLE other", "CREATE TABLE other (par CHAR, chd CHAR)")
	if rows, err := named.Query(ctx, nil, nil); err != nil || len(rows.Tuples) != 0 {
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
	if err := sel.Exec(ctx, nil, nil, "parent"); err == nil {
		t.Error("Exec ran a prepared SELECT")
	}
	if _, err := ins.Query(ctx, nil, nil, "parent", "parent"); err == nil {
		t.Error("Query ran a prepared INSERT")
	}
	if _, err := sel.Query(ctx, nil, nil); err == nil {
		t.Error("Query ran with a parameter unbound")
	}
	var be *plan.BindError
	if _, err := sel.Query(ctx, nil, nil, "ghost"); !errors.As(err, &be) || be.Got != nil || be.Ref != "$1" {
		t.Errorf("missing table: %v", err)
	}
	if _, err := sel.Query(ctx, nil, nil, "nums"); !errors.As(err, &be) || be.Got == nil {
		t.Errorf("wrong schema: %v", err)
	}
	if err := ins.Exec(ctx, nil, nil, "nums", "parent"); !errors.As(err, &be) || be.Ref != "$1" {
		t.Errorf("wrong target schema: %v", err)
	}
	if err := ins.Exec(ctx, nil, nil, "ghost", "parent"); err == nil {
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
				rows, err := st.Query(ctx, nil, nil, "parent", second)
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
