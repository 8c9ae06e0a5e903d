package db

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/plan"
	"dkbms/internal/plan/plantest"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// checkKept acquires the tree p's next execution over args and vals
// takes, renders it beside a tree Build constructs over the same tables
// and values, and hands it back; the two renderings — operators,
// tables, indexes, probe keys, BuildLeft, estimates, bound predicates
// and the values their parameters read — must be identical. When rows
// is set both trees are drained, and got and want are the rows the kept
// and the fresh tree return.
func checkKept(t *testing.T, d *DB, p *plan.Prepared, args []*catalog.Table, vals []rel.Value, rows bool, what string) (reused bool, got, want []rel.Tuple) {
	t.Helper()
	tr, reused, err := p.Acquire(d, args, vals)
	if err != nil {
		t.Fatalf("acquire: %v\n%s", err, what)
	}
	defer p.Release(tr)
	fresh, err := p.Build(d, args, vals)
	if err != nil {
		t.Fatalf("build: %v\n%s", err, what)
	}
	if got, want := plantest.Render(tr.Root), plantest.Render(fresh); got != want {
		t.Fatalf("re-bound=%v: the kept tree\n%s\nis not the fresh one\n%s\n%s", reused, got, want, what)
	}
	if rows {
		kept, err := collect(context.Background(), tr.Root)
		if err != nil {
			t.Fatal(err)
		}
		built, err := collect(context.Background(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, want = kept.Tuples, built.Tuples
	}
	return reused, got, want
}

// TestReusedPlanEqualsFresh: every operator tree a prepared statement
// keeps and re-binds is the tree Build would construct against the same
// tables. Over the planner's differential generator (plantest.Random),
// its tables' rows spread over three heap pages or more, each statement
// with every FROM position a parameter runs six times while its tables
// swap positions and grow, and the rows every execution returned are
// compared with the fresh tree's only after all six — a returned row
// the kept tree's later executions wrote over, or a record buffer
// written over while a consumer still held its record, shows; the same shapes with every
// literal a value parameter ?n run six times with the values changing
// (valueRebinds); over a semi-naive LFP run, every statement execution
// of every round is checked just before it runs — it then re-binds the
// checked tree — and the answer is the transitive closure. The
// differentiated rule reads its delta through a Filter, so a scan left
// bound to a dropped delta shows.
func TestReusedPlanEqualsFresh(t *testing.T) {
	cases, reused := 150, 0
	if testing.Short() {
		cases = 40
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		sh := plantest.Random(rand.New(rand.NewSource(seed)))
		for i := range sh.Tables {
			sh.Tables[i].Pages = 3
		}
		d := OpenMemory()
		sh.Create(t, d.Catalog())
		for _, ts := range sh.Tables {
			if n := heapPages(t, d.Table(ts.Name)); ts.Rows > 0 && n < 3 {
				t.Fatalf("table %s of %d rows lies on %d heap pages, want 3 or more", ts.Name, ts.Rows, n)
			}
		}
		st, err := sql.Parse(sh.Query)
		if err != nil {
			t.Fatalf("%v\n%s", err, sh)
		}
		sel := *st.(*sql.Select)
		n := len(sel.From)
		named := sel.From
		sel.From = make([]sql.TableRef, n)
		schemas := make([]*rel.Schema, n)
		for i, tr := range named {
			sel.From[i] = sql.TableRef{Param: i + 1, Alias: tr.Alias}
			schemas[i] = d.Table(tr.Table).Schema
		}
		p, err := plan.Prepare(d, &sel, schemas)
		if err != nil {
			t.Fatalf("prepare: %v\n%s", err, sh)
		}
		var got [6][]rel.Tuple
		var want [6]string
		for round := range got {
			args := make([]*catalog.Table, n)
			for i := range args {
				args[i] = d.Table(named[(i+round/2)%n].Table)
			}
			kept, rows, fresh := checkKept(t, d, p, args, nil, true, sh.String())
			if kept {
				reused++
			}
			got[round], want[round] = rows, strings.Join(rowStrings(&Rows{Tuples: fresh}), "|")
			grow := d.Table(sh.Tables[round%len(sh.Tables)].Name)
			for k := 0; k < 3; k++ {
				if _, err := grow.Insert(rel.Tuple{rel.NewInt(int64(k)), rel.NewInt(int64(round)), rel.NewInt(int64(k)), rel.NewString("x1")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for round := range got {
			if g := strings.Join(rowStrings(&Rows{Tuples: got[round]}), "|"); g != want[round] {
				t.Fatalf("execution %d: the kept tree returned %s, the fresh one %s\n%s", round+1, g, want[round], sh)
			}
		}
	}
	if reused < 3*cases { // 609 of 900 at the default count
		t.Errorf("only %d of %d executions re-bound their kept tree", reused, 6*cases)
	}
	t.Run("values", func(t *testing.T) { valueRebinds(t, cases) })

	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("lfp indexed=%v", indexed), func(t *testing.T) { lfpRebinds(t, indexed) })
	}
}

// valueRebinds runs the generator's shapes with each literal of the
// WHERE clause a value parameter ?n, six times over the same tables:
// first with the literals' own values, then with values drawn from the
// columns' domains, so that most executions re-bind the kept tree to
// other values. Each execution is checked by checkKept, and the rows
// every execution returned are compared with the fresh tree's after
// all six: a parameter that kept the value it was constructed with, or
// read the caller's slice, shows.
func valueRebinds(t *testing.T, cases int) {
	rebound := 0
	for seed := int64(1); seed <= int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := plantest.Random(rng)
		for i := range sh.Tables {
			sh.Tables[i].Pages = 3
		}
		st, err := sql.Parse(sh.Query)
		if err != nil {
			t.Fatalf("%v\n%s", err, sh)
		}
		sel := *st.(*sql.Select)
		var lits []rel.Value
		if sel.Where != nil {
			sel.Where = parameterize(sel.Where, &lits)
		}
		if len(lits) == 0 {
			continue
		}
		d := OpenMemory()
		sh.Create(t, d.Catalog())
		p, err := plan.Prepare(d, &sel, nil)
		if err != nil {
			t.Fatalf("prepare: %v\n%s", err, sh)
		}
		var got [6][]rel.Tuple
		var want [6]string
		var last []rel.Value
		for round := range got {
			vals := slices.Clone(lits)
			for i := range vals {
				if round > 0 && vals[i].Kind == rel.TypeString {
					vals[i] = rel.NewString(fmt.Sprintf("x%d", rng.Intn(3)))
				} else if round > 0 {
					vals[i] = rel.NewInt(int64(rng.Intn(6)))
				}
			}
			what := fmt.Sprintf("%s\nvalues %v", sh, vals)
			kept, rows, fresh := checkKept(t, d, p, nil, vals, true, what)
			if kept && !slices.Equal(vals, last) {
				rebound++
			}
			last = vals
			got[round], want[round] = rows, strings.Join(rowStrings(&Rows{Tuples: fresh}), "|")
		}
		for round := range got {
			if g := strings.Join(rowStrings(&Rows{Tuples: got[round]}), "|"); g != want[round] {
				t.Fatalf("execution %d: the kept tree returned %s, the fresh one %s\n%s", round+1, g, want[round], sh)
			}
		}
	}
	t.Logf("%d executions re-bound their kept tree to other values", rebound)
	if rebound < cases {
		t.Errorf("only %d executions re-bound their kept tree to other values", rebound)
	}
}

// parameterize replaces each literal of e, left to right, with the
// next value parameter, appending the literal to lits.
func parameterize(e sql.Expr, lits *[]rel.Value) sql.Expr {
	switch v := e.(type) {
	case sql.Literal:
		*lits = append(*lits, v.Value)
		return sql.ValueParam{N: len(*lits)}
	case sql.Compare:
		v.Left, v.Right = parameterize(v.Left, lits), parameterize(v.Right, lits)
		return v
	case sql.And:
		v.Left, v.Right = parameterize(v.Left, lits), parameterize(v.Right, lits)
		return v
	case sql.Or:
		v.Left, v.Right = parameterize(v.Left, lits), parameterize(v.Right, lits)
		return v
	case sql.Not:
		v.Inner = parameterize(v.Inner, lits)
		return v
	}
	return e
}

// lfpRebinds runs ancestor over a 63-node binary tree, semi-naive, with
// the statements the run-time library prepares, each checked by
// checkKept just before it executes.
func lfpRebinds(t *testing.T, indexed bool) {
	ctx := context.Background()
	d := OpenMemory()
	mustExec(t, d, "CREATE TABLE parent (par CHAR, chd CHAR)", "CREATE TABLE anc (par CHAR, chd CHAR)")
	up := make(map[string]string)
	for i := 2; i < 64; i++ {
		par, chd := fmt.Sprintf("n%d", i/2), fmt.Sprintf("n%d", i)
		up[chd] = par
		mustExec(t, d, fmt.Sprintf("INSERT INTO parent VALUES ('%s', '%s')", par, chd))
	}
	if indexed {
		mustExec(t, d, "CREATE INDEX parent_chd ON parent (chd)")
	}
	s := parentSchema
	rule := mustPrepare(t, d, "INSERT INTO $3 SELECT DISTINCT p.par, e.chd FROM $1 p, $2 e WHERE p.chd = e.par AND e.chd <> 'none' "+
		"EXCEPT SELECT * FROM $4 EXCEPT SELECT * FROM $3", s, s, s, s)
	count := mustPrepare(t, d, "SELECT COUNT(*) FROM $1", s)
	copyInto := mustPrepare(t, d, "INSERT INTO $1 SELECT * FROM $2", s, s)
	run := func(st *Stmt, tables ...string) {
		t.Helper()
		var buf [maxStackArgs]*catalog.Table
		args, err := st.bind(d, buf[:0], tables)
		if err != nil {
			t.Fatal(err)
		}
		checkKept(t, d, &st.sel, args, nil, false, strings.Join(tables, ", "))
		if st.insert {
			err = st.Exec(ctx, d, nil, nil, tables...)
		} else {
			_, err = st.Query(ctx, d, nil, nil, tables...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	before := d.StatsSnapshot()
	delta := "delta0"
	if err := d.CreateTempTable(delta, s); err != nil {
		t.Fatal(err)
	}
	run(copyInto, "anc", "parent")
	run(copyInto, delta, "parent")
	rounds := 0
	for {
		rounds++
		next := fmt.Sprintf("delta%d", rounds)
		if err := d.CreateTempTable(next, s); err != nil {
			t.Fatal(err)
		}
		run(rule, "parent", delta, next, "anc")
		run(count, next)
		if d.TableRows(next) == 0 {
			break
		}
		run(copyInto, "anc", next)
		if err := d.DropTable(delta); err != nil {
			t.Fatal(err)
		}
		delta = next
	}
	after := d.StatsSnapshot()
	if builds, reuses := after.Builds-before.Builds, after.Reuses-before.Reuses; builds != 0 || reuses != 3*int64(rounds)+1 {
		t.Errorf("%d rounds: the checked executions built %d trees and re-bound %d, want 0 and %d", rounds, builds, reuses, 3*rounds+1)
	}

	var want []string
	for chd := range up {
		for a := up[chd]; a != ""; a = up[a] {
			want = append(want, rel.Tuple{rel.NewString(a), rel.NewString(chd)}.String())
		}
	}
	sort.Strings(want)
	if got := rowStrings(mustQuery(t, d, "SELECT * FROM anc")); strings.Join(got, "|") != strings.Join(want, "|") || rounds != 5 {
		t.Errorf("%d rounds derived %d ancestor pairs, want 5 rounds and %d", rounds, len(got), len(want))
	}
}

// heapPages returns the number of pages in tab's heap chain.
func heapPages(t *testing.T, tab *catalog.Table) int {
	t.Helper()
	before := tab.Heap.Stats()
	if err := tab.Heap.ScanPages(func(*storage.Page) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return int(tab.Heap.Stats().Sub(before).PagesScanned)
}

// pinned is a view's table map, binding stored-table names to fixed
// table versions, as a snapshot's does.
type pinned map[string]*catalog.Table

// TestStmtOnViewsConcurrent executes one prepared statement from 8
// goroutines on two views that bind its named table to different
// tables (run under -race): the views share the statement's plan and
// its kept tree, and every answer is the one the view's own ad-hoc
// query gives.
func TestStmtOnViewsConcurrent(t *testing.T) {
	ctx := context.Background()
	d := family(t)
	mustExec(t, d, "CREATE TABLE parent2 (par CHAR, chd CHAR)")
	for i := 0; i < 30; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO parent2 VALUES ('p%d', 'p%d')", i/3, i+1))
	}
	const q = "SELECT DISTINCT p.par, c.chd FROM parent p, parent c WHERE p.chd = c.par"
	views := []*DB{
		d.View(pinned{"parent": d.Table("parent")}, nil),
		d.View(pinned{"parent": d.Table("parent2")}, nil),
	}
	var want [2]string
	for i, v := range views {
		want[i] = strings.Join(rowStrings(mustQuery(t, v, q)), "|")
	}
	if want[0] == want[1] {
		t.Fatal("the two views answer alike")
	}
	st := mustPrepare(t, d, q)
	before := d.StatsSnapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % 2
				rows, err := st.Query(ctx, views[k], nil, nil)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := strings.Join(rowStrings(rows), "|"); got != want[k] {
					t.Errorf("goroutine %d, view %d: %s, want %s", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after := d.StatsSnapshot()
	if n := after.Builds - before.Builds + after.Reuses - before.Reuses; n != 800 {
		t.Errorf("%d executions planned, want 800", n)
	}
}
