package db

import (
	"context"
	"errors"
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

// TestStmtMatchesTextPath runs statements once as text and once
// prepared with every table a parameter: same rows, same statement
// counters, same traced operator tree.
func TestStmtMatchesTextPath(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		text, prepared string
		tables         []string
	}{
		{"SELECT chd FROM parent WHERE par = 'john'",
			"SELECT chd FROM $1 WHERE par = 'john'", []string{"parent"}},
		{"SELECT DISTINCT p.par, c.chd FROM parent p, parent c WHERE p.chd = c.par",
			"SELECT DISTINCT p.par, c.chd FROM $1 p, $1 c WHERE p.chd = c.par", []string{"parent"}},
		{"SELECT COUNT(*) FROM parent", "SELECT COUNT(*) FROM $1", []string{"parent"}},
		{"INSERT INTO seen SELECT DISTINCT p.par, c.chd FROM parent p, parent c WHERE p.chd = c.par EXCEPT SELECT * FROM known EXCEPT SELECT * FROM seen",
			"INSERT INTO $3 SELECT DISTINCT p.par, c.chd FROM $1 p, $1 c WHERE p.chd = c.par EXCEPT SELECT * FROM $2 EXCEPT SELECT * FROM $3",
			[]string{"parent", "known", "seen"}},
		{"INSERT INTO seen SELECT * FROM parent", "INSERT INTO $1 SELECT * FROM $2", []string{"seen", "parent"}},
	} {
		run := func(prepared bool) (rows []string, stats Stats, shape string) {
			d := family(t)
			mustExec(t, d, "CREATE TABLE known (par CHAR, chd CHAR)", "CREATE TABLE seen (par CHAR, chd CHAR)",
				"INSERT INTO known VALUES ('john','ann')")
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
				err = st.Exec(ctx, tr.Root(), tc.tables...)
			case insert:
				err = d.ExecTracedCtx(ctx, tc.text, tr.Root())
			case prepared:
				res, err = st.Query(ctx, tr.Root(), tc.tables...)
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
		rows, stats, shape := run(false)
		pRows, pStats, pShape := run(true)
		if strings.Join(rows, "|") != strings.Join(pRows, "|") || len(rows) == 0 {
			t.Errorf("%s: rows %v, prepared %v", tc.text, rows, pRows)
		}
		if stats != pStats {
			t.Errorf("%s: counters %+v, prepared %+v", tc.text, stats, pStats)
		}
		if shape != pShape || !strings.Contains(shape, "rows=") {
			t.Errorf("%s: trace\n%s\nprepared\n%s", tc.text, shape, pShape)
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
		if n, err := count.QueryCount(ctx, nil, tc.table); err != nil || n != tc.want {
			t.Fatalf("COUNT(%s) = %d, %v; want %d", tc.table, n, err, tc.want)
		}
	}
	mustExec(t, d, "INSERT INTO other VALUES ('y','z')")
	if n, err := count.QueryCount(ctx, nil, "other"); err != nil || n != 2 {
		t.Fatalf("after insert: %d, %v", n, err)
	}
	// A named table is re-resolved per execution too.
	named := mustPrepare(t, d, "SELECT * FROM other")
	mustExec(t, d, "DROP TABLE other", "CREATE TABLE other (par CHAR, chd CHAR)")
	if rows, err := named.Query(ctx, nil); err != nil || len(rows.Tuples) != 0 {
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
	if err := sel.Exec(ctx, nil, "parent"); err == nil {
		t.Error("Exec ran a prepared SELECT")
	}
	if _, err := ins.Query(ctx, nil, "parent", "parent"); err == nil {
		t.Error("Query ran a prepared INSERT")
	}
	if _, err := sel.Query(ctx, nil); err == nil {
		t.Error("Query ran with a parameter unbound")
	}
	var be *plan.BindError
	if _, err := sel.Query(ctx, nil, "ghost"); !errors.As(err, &be) || be.Got != nil || be.Ref != "$1" {
		t.Errorf("missing table: %v", err)
	}
	if _, err := sel.Query(ctx, nil, "nums"); !errors.As(err, &be) || be.Got == nil {
		t.Errorf("wrong schema: %v", err)
	}
	if err := ins.Exec(ctx, nil, "nums", "parent"); !errors.As(err, &be) || be.Ref != "$1" {
		t.Errorf("wrong target schema: %v", err)
	}
	if err := ins.Exec(ctx, nil, "ghost", "parent"); err == nil {
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
				rows, err := st.Query(ctx, nil, "parent", second)
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
