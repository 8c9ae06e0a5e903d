package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/plan/plantest"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
)

// sortedRows runs a built plan and renders its rows, sorted.
func sortedRows(t *testing.T, op exec.Operator, sh any) []string {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("run: %v\n%v", err, sh)
	}
	out := make([]string, len(rows))
	for i, tu := range rows {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return out
}

// checkPrepared runs the shape's query as one Prepared whose every FROM
// position is a parameter, built three times: over the shape's own
// tables, then with the tables rotated one position along, then
// reversed. Rebinding moves the cardinalities and indexes under the
// positions — the join order and methods follow them — while the cross
// product the reference enumerates stays the same size. Each build is
// compared with brute force over the tables it was bound to.
func (sh shape) checkPrepared(t *testing.T) (orders map[string]bool) {
	t.Helper()
	c := sh.catalog(t)
	st, err := sql.Parse(sh.Query)
	if err != nil {
		t.Fatalf("%v\n%s", err, sh)
	}
	named := st.(*sql.Select)
	n := len(named.From)
	param := *named
	param.From = make([]sql.TableRef, n)
	schemas := make([]*rel.Schema, n)
	for i, tr := range named.From {
		param.From[i] = sql.TableRef{Param: i + 1, Alias: tr.Alias}
		schemas[i] = c.Table(tr.Table).Schema
	}
	p, err := Prepare(c, &param, schemas)
	if err != nil {
		t.Fatalf("prepare: %v\n%s", err, sh)
	}
	orders = make(map[string]bool)
	for _, at := range []func(i int) int{
		func(i int) int { return i },
		func(i int) int { return (i + 1) % n },
		func(i int) int { return n - 1 - i },
	} {
		bound := *named
		bound.From = make([]sql.TableRef, n)
		args := make([]*catalog.Table, n)
		for i, tr := range named.From {
			bound.From[i] = sql.TableRef{Table: named.From[at(i)].Table, Alias: tr.Alias}
			args[i] = c.Table(bound.From[i].Table)
		}
		op, err := p.Build(c, args, nil)
		if err != nil {
			t.Fatalf("build: %v\n%s", err, sh)
		}
		orders[scanOrder(op)] = true
		got, want := sortedRows(t, op, sh), bruteForce(t, c, &bound)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("prepared query bound to %v returned %d rows, brute force %d\n got %v\nwant %v\n%s",
				bound.From, len(got), len(want), got, want, sh)
		}
	}
	return orders
}

// scanOrder names the tables of a plan in the order its spine attaches
// them, with the method that attaches each.
func scanOrder(op exec.Operator) string {
	switch v := op.(type) {
	case *exec.Project:
		return scanOrder(v.Input)
	case *exec.Filter:
		return scanOrder(v.Input)
	case *exec.Distinct:
		return scanOrder(v.Input)
	case *exec.CountStar:
		return scanOrder(v.Input)
	case *exec.SeqScan:
		return v.Table.Name
	case *exec.IndexScan:
		return v.Table.Name + "[" + v.Index.Name + "]"
	case *exec.HashJoin:
		return scanOrder(v.Left) + " hash " + scanOrder(v.Right)
	case *exec.NLJoin:
		return scanOrder(v.Left) + " cross " + scanOrder(v.Right)
	case *exec.IndexNLJoin:
		return scanOrder(v.Left) + " index " + v.Right.Name + "[" + v.Index.Name + "]"
	}
	return fmt.Sprintf("%T", op)
}

// TestPreparedAgreesWithBruteForce holds Prepare + Build to the
// planner's differential property across rebinding: every named shape
// and 120 random ones, each one statement built three times.
func TestPreparedAgreesWithBruteForce(t *testing.T) {
	for _, tc := range namedShapes() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { tc.checkPrepared(t) })
	}
	flipped := 0
	for seed := int64(1); seed <= 120; seed++ {
		if len(randomShape(rand.New(rand.NewSource(seed))).checkPrepared(t)) > 1 {
			flipped++
		}
	}
	// The point of building per execution: the plan follows the tables.
	if flipped < 20 {
		t.Errorf("rebinding changed the plan of only %d of 120 random shapes", flipped)
	}
}

// TestPreparedOrdersPerBuild pins the flip on the smallest case: one
// statement, the small and the big table trading FROM positions, and
// the plan starting from the small one and building the join on it
// wherever it stands.
func TestPreparedOrdersPerBuild(t *testing.T) {
	c := setup(t)
	small, big := addTable(t, c, "small", 3), addTable(t, c, "big", 300)
	st, err := sql.Parse("SELECT t0.a FROM $1 t0, $2 t1 WHERE t0.b = t1.b")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(c, st.(*sql.Select), []*rel.Schema{small.Schema, big.Schema})
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]*catalog.Table{{small, big}, {big, small}} {
		op, err := p.Build(c, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hj, ok := unwrap(op).(*exec.HashJoin); !ok || !hj.BuildLeft || scanOrder(op) != "small hash big" {
			t.Errorf("bound to (%s, %s): plan %s, want small hash big built on small", args[0].Name, args[1].Name, scanOrder(op))
		}
	}
}

// TestPreparedBindErrors: a table that is missing or of another schema
// than the statement was prepared for is a *BindError from Build — for
// a parameter and for a named table dropped or re-created since — and a
// parameter without a declared schema fails Prepare.
func TestPreparedBindErrors(t *testing.T) {
	c := setup(t)
	ab := addTable(t, c, "ab", 5)
	other, err := c.CreateTable("other", rel.MustSchema(
		rel.Column{Name: "a", Type: rel.TypeString},
		rel.Column{Name: "b", Type: rel.TypeInt},
	), false)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(q string, params ...*rel.Schema) (*Prepared, error) {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return Prepare(c, st.(*sql.Select), params)
	}
	p, err := prepare("SELECT t.a FROM $1 t, ab u WHERE t.a = u.a AND t.a < 3", ab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	wantBind := func(what string, args []*catalog.Table, ref string, missing bool) {
		t.Helper()
		_, err := p.Build(c, args, nil)
		var be *BindError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error %v, want a *BindError", what, err)
		}
		if be.Ref != ref || (be.Got == nil) != missing {
			t.Errorf("%s: %+v", what, be)
		}
	}
	if op, err := p.Build(c, []*catalog.Table{ab}, nil); err != nil || len(sortedRows(t, op, "good bind")) != 3 {
		t.Fatalf("good bind: %v", err)
	}
	wantBind("wrong schema", []*catalog.Table{other}, "$1", false)
	wantBind("missing", []*catalog.Table{nil}, "$1", true)
	if _, err := p.Build(c, nil, nil); err == nil {
		t.Error("Build without arguments succeeded")
	}
	if err := c.DropTable("ab"); err != nil {
		t.Fatal(err)
	}
	wantBind("named table dropped", []*catalog.Table{ab}, "ab", true)
	if _, err := c.CreateTable("ab", other.Schema, false); err != nil {
		t.Fatal(err)
	}
	wantBind("named table re-created", []*catalog.Table{ab}, "ab", false)

	if _, err := prepare("SELECT * FROM $2", ab.Schema); err == nil {
		t.Error("Prepare accepted $2 with one declared schema")
	}
	if _, err := prepare("SELECT * FROM $1", nil); err == nil {
		t.Error("Prepare accepted a nil schema")
	}
	if _, err := BuildSelect(c, &sql.Select{From: []sql.TableRef{{Param: 1, Alias: "$1"}}}); err == nil {
		t.Error("BuildSelect accepted a parameter")
	}
}

// TestPreparedConcurrentBuild executes one Prepared from 8 goroutines
// (run under -race): Build shares the statement read-only.
func TestPreparedConcurrentBuild(t *testing.T) {
	c := setup(t)
	small, big := addTable(t, c, "small", 7), addTable(t, c, "big", 200)
	if _, err := c.CreateIndex("big_b", "big", []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse("SELECT DISTINCT t1.a FROM $1 t0, $2 t1 WHERE t0.b = t1.b AND t0.a > 1 EXCEPT SELECT a FROM $1 WHERE a = 3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(c, st.(*sql.Select), []*rel.Schema{small.Schema, big.Schema})
	if err != nil {
		t.Fatal(err)
	}
	run := func(args []*catalog.Table) (int, error) {
		op, err := p.Build(c, args, nil)
		if err != nil {
			return 0, err
		}
		rows, err := exec.Collect(op)
		return len(rows), err
	}
	bindings := [][]*catalog.Table{{small, big}, {big, small}}
	var want [2]int
	for i, args := range bindings {
		if want[i], err = run(args); err != nil || want[i] == 0 {
			t.Fatalf("binding %d: %d rows, %v", i, want[i], err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if n, err := run(bindings[(g+i)%2]); err != nil || n != want[(g+i)%2] {
					t.Errorf("goroutine %d: %d rows, %v; want %d", g, n, err, want[(g+i)%2])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPreparedValueParams: a value parameter is typed by the column it
// is compared with, in every block of a compound; what cannot be typed
// that way fails Prepare, and a value of another type or count fails
// Build. Under an equality it picks the index and the exact posting
// count from the bound value, as the literal does.
func TestPreparedValueParams(t *testing.T) {
	c := setup(t)
	addTable(t, c, "e", 100)
	if _, err := c.CreateIndex("e_b", "e", []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	prepare := func(q string) (*Prepared, error) {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return Prepare(c, st.(*sql.Select), nil)
	}
	for _, q := range []string{
		"SELECT a FROM e WHERE ?1 = 3",                                    // compared with no column
		"SELECT a FROM e WHERE ?1 = ?1",                                   // nor here
		"SELECT ?1 FROM e WHERE a = ?1",                                   // in the select list
		"SELECT a FROM e WHERE b = ?2",                                    // ?1 missing
		"SELECT a FROM e WHERE b = ?1 UNION SELECT a FROM e WHERE b = ?3", // ?2 missing
	} {
		if _, err := prepare(q); err == nil {
			t.Errorf("Prepare(%q) succeeded", q)
		}
	}
	s := rel.MustSchema(rel.Column{Name: "s", Type: rel.TypeString})
	if _, err := c.CreateTable("strs", s, false); err != nil {
		t.Fatal(err)
	}
	if _, err := prepare("SELECT a FROM e, strs WHERE e.a = ?1 AND strs.s = ?1"); err == nil {
		t.Error("Prepare accepted ?1 typed both INTEGER and CHAR")
	}

	p, err := prepare("SELECT a FROM e WHERE b = ?1 AND a < ?2 UNION SELECT a FROM e WHERE ?1 = b")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]rel.Value{nil, {rel.NewInt(1)}, {rel.NewInt(1), rel.NewString("x")}} {
		if _, err := p.Build(c, nil, bad); err == nil {
			t.Errorf("Build bound %v", bad)
		}
	}
	op, err := p.Build(c, nil, []rel.Value{rel.NewInt(7), rel.NewInt(50)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(t, op, "union"); len(got) != 10 {
		t.Errorf("b = 7: %d rows, want 10: %v", len(got), got)
	}
	if _, err := BuildSelect(c, &sql.Select{From: []sql.TableRef{{Table: "e", Alias: "e"}},
		Where: sql.Compare{Op: sql.CmpEq, Left: sql.ColRef{Column: "b"}, Right: sql.ValueParam{N: 1}}}); err == nil {
		t.Error("BuildSelect bound a value parameter")
	}

	one, err := prepare("SELECT a FROM e WHERE b = ?1")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{3, 42} {
		op, err := one.Build(c, nil, []rel.Value{rel.NewInt(v)})
		if err != nil {
			t.Fatal(err)
		}
		lit := build(t, c, fmt.Sprintf("SELECT a FROM e WHERE b = %d", v))
		if plantest.Render(op) != plantest.Render(lit) {
			t.Errorf("b = ?1 bound to %d plans %s, the literal %s", v, plantest.Render(op), plantest.Render(lit))
		}
		if scan, ok := unwrap(op).(*exec.IndexScan); !ok || scan.Est != float64(len(sortedRows(t, lit, v))) {
			t.Errorf("b = ?1 bound to %d: %s, want an IndexScan with the exact posting count", v, plantest.Render(op))
		}
	}
}

// TestValueParamBuildAllocsAsLiteral: binding ?1 allocates what the
// literal it stands for does — the value goes into the Const and the
// probe key the literal would have gone into — so neither a statement
// with value parameters nor one without pays for the slot per Build.
func TestValueParamBuildAllocsAsLiteral(t *testing.T) {
	c := setup(t)
	addTable(t, c, "e", 50)
	if _, err := c.CreateIndex("e_b", "e", []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	prep := func(q string) *Prepared {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(c, st.(*sql.Select), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lit, param := prep("SELECT a FROM e WHERE b = 4"), prep("SELECT a FROM e WHERE b = ?1")
	vals := []rel.Value{rel.NewInt(4)}
	litAllocs := testing.AllocsPerRun(50, func() { lit.Build(c, nil, nil) })
	paramAllocs := testing.AllocsPerRun(50, func() { param.Build(c, nil, vals) })
	if litAllocs != paramAllocs {
		t.Errorf("Build allocates %.0f objects for a literal, %.0f for the same statement with ?1", litAllocs, paramAllocs)
	}
}
