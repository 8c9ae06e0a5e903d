// Package plantest holds the planner's differential-test generator and
// plan rendering, shared by the tests of internal/plan (plans against
// brute force) and internal/db (re-bound trees against fresh ones). It
// is imported by tests only.
package plantest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// A Shape is one differential case: physical tables and a SELECT over
// them. Every table has int columns a, b, c and a string column s; rows
// are drawn from a small domain (seeded per table) so that joins match.
type Shape struct {
	Tables []Table
	Query  string
}

// Table is one physical table of a Shape: its name, size, the seed of
// its rows, and the columns of each index on it. Pages, when set,
// spreads the rows over at least that many heap pages: filler rows go
// in between them and are deleted before the indexes are built, so a
// scan crosses page boundaries, some pages left empty.
type Table struct {
	Name    string
	Rows    int
	Seed    int64
	Indexes [][]string
	Pages   int
}

// pageRows is more rows of a shape table than one heap page holds.
const pageRows = 4096 / 24

// Cols are the columns of every shape table.
var Cols = []string{"a", "b", "c", "s"}

func (sh Shape) String() string {
	var b strings.Builder
	for _, t := range sh.Tables {
		fmt.Fprintf(&b, "{name: %q, rows: %d, seed: %d, indexes: %#v, pages: %d}\n", t.Name, t.Rows, t.Seed, t.Indexes, t.Pages)
	}
	b.WriteString(sh.Query)
	return b.String()
}

// Create creates the shape's tables, rows and indexes in c.
func (sh Shape) Create(t testing.TB, c *catalog.Catalog) {
	t.Helper()
	for _, ts := range sh.Tables {
		tb, err := c.CreateTable(ts.Name, rel.MustSchema(
			rel.Column{Name: "a", Type: rel.TypeInt},
			rel.Column{Name: "b", Type: rel.TypeInt},
			rel.Column{Name: "c", Type: rel.TypeInt},
			rel.Column{Name: "s", Type: rel.TypeString},
		), false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(ts.Seed))
		filler := rel.Tuple{rel.NewInt(-1), rel.NewInt(-1), rel.NewInt(-1), rel.NewString("")}
		var fillers []storage.RID
		for i := 0; i < ts.Rows; i++ {
			tu := rel.Tuple{
				rel.NewInt(int64(rng.Intn(4))),
				rel.NewInt(int64(rng.Intn(6))),
				rel.NewInt(int64(rng.Intn(ts.Rows + 1))),
				rel.NewString(fmt.Sprintf("x%d", rng.Intn(3))),
			}
			if _, err := tb.Insert(tu); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < ts.Pages*pageRows/ts.Rows; k++ {
				rid, err := tb.Insert(filler)
				if err != nil {
					t.Fatal(err)
				}
				fillers = append(fillers, rid)
			}
		}
		for _, rid := range fillers {
			if err := tb.DeleteRID(rid, filler.Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
		for i, cols := range ts.Indexes {
			if _, err := c.CreateIndex(fmt.Sprintf("%s_ix%d", ts.Name, i), ts.Name, cols, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Render renders a plan with everything the planner decided: the
// operators and their order, tables and indexes, estimates, probe keys
// and bound predicates.
func Render(op exec.Operator) string {
	switch v := op.(type) {
	case *exec.Project:
		return fmt.Sprintf("project%v(%s)", v.Exprs, Render(v.Input))
	case *exec.Filter:
		return fmt.Sprintf("filter[%v](%s)", v.Pred, Render(v.Input))
	case *exec.Distinct:
		return "distinct(" + Render(v.Input) + ")"
	case *exec.CountStar:
		return "count(" + Render(v.Input) + ")"
	case *exec.SeqScan:
		return fmt.Sprintf("seq %s est=%g", v.Table.Name, v.Est)
	case *exec.IndexScan:
		// The key renders as the values it encodes.
		key, err := rel.DecodeTuple(v.Key, v.Table.Schema.Project(v.Index.Ords[:v.Cols]))
		if err != nil {
			return fmt.Sprintf("index %s[%s] key: %v", v.Table.Name, v.Index.Name, err)
		}
		return fmt.Sprintf("index %s[%s] key=%v est=%g", v.Table.Name, v.Index.Name, key, v.Est)
	case *exec.HashJoin:
		return fmt.Sprintf("hash%v%v left=%v est=%g(%s, %s)", v.LeftOrds, v.RightOrds, v.BuildLeft, v.Est, Render(v.Left), Render(v.Right))
	case *exec.NLJoin:
		return fmt.Sprintf("cross est=%g(%s, %s)", v.Est, Render(v.Left), Render(v.Right))
	case *exec.IndexNLJoin:
		return fmt.Sprintf("probe %s[%s]%v [%v] est=%g(%s)", v.Right.Name, v.Index.Name, v.LeftOrds, v.Residual, v.Est, Render(v.Left))
	case *exec.SetOpExec:
		return fmt.Sprintf("setop%d(%s, %s)", v.Kind, Render(v.Left), Render(v.Right))
	}
	return fmt.Sprintf("%T", op)
}

// Random draws 1–5 FROM entries over 1–3 physical tables (so aliases of
// one table self-join), random sizes and indexes, literal predicates,
// and an equijoin graph that is a chain, a chain with extra and
// multi-column edges, or missing edges (cross products); now and then a
// non-equi or disjunctive cross-table residual. FROM entry i is aliased
// ti.
func Random(rng *rand.Rand) Shape {
	var sh Shape
	n := 1 + rng.Intn(5)
	// Keep the reference's cross product near 50 000 rows.
	maxRows := int(math.Min(60, math.Pow(50000, 1/float64(n))))
	for i, np := 0, 1+rng.Intn(3); i < np; i++ {
		ts := Table{Name: fmt.Sprintf("r%d", i), Rows: rng.Intn(maxRows + 1), Seed: rng.Int63()}
		for k := rng.Intn(3); k > 0; k-- {
			cols := []string{Cols[rng.Intn(4)]}
			if other := Cols[rng.Intn(4)]; other != cols[0] && rng.Intn(2) == 0 {
				cols = append(cols, other)
			}
			ts.Indexes = append(ts.Indexes, cols)
		}
		sh.Tables = append(sh.Tables, ts)
	}
	var from, where []string
	col := func(ti int, c string) string { return fmt.Sprintf("t%d.%s", ti, c) }
	lit := func(c string) string {
		if c == "s" {
			return fmt.Sprintf("'x%d'", rng.Intn(3))
		}
		return fmt.Sprint(rng.Intn(5))
	}
	ops := []string{"=", "=", "=", "<>", "<", "<=", ">", ">="}
	for ti := 0; ti < n; ti++ {
		from = append(from, fmt.Sprintf("%s t%d", sh.Tables[rng.Intn(len(sh.Tables))].Name, ti))
		if rng.Intn(3) == 0 {
			c := Cols[rng.Intn(4)]
			switch rng.Intn(5) {
			case 0: // literal on the left
				where = append(where, fmt.Sprintf("%s = %s", lit(c), col(ti, c)))
			case 1: // two columns of one table
				where = append(where, fmt.Sprintf("%s = %s", col(ti, "a"), col(ti, "b")))
			default:
				where = append(where, fmt.Sprintf("%s %s %s", col(ti, c), ops[rng.Intn(len(ops))], lit(c)))
			}
		}
	}
	edge := func(x, y int) {
		c := Cols[rng.Intn(4)]
		d := c
		if c != "s" {
			d = Cols[rng.Intn(3)]
		}
		where = append(where, fmt.Sprintf("%s = %s", col(x, c), col(y, d)))
	}
	connect := rng.Intn(4) // 0: leave some tables unconnected
	for ti := 1; ti < n; ti++ {
		if connect == 0 && rng.Intn(2) == 0 {
			continue
		}
		other := rng.Intn(ti)
		edge(other, ti)
		if rng.Intn(3) == 0 { // multi-column join
			edge(other, ti)
		}
	}
	if n > 1 {
		for k := rng.Intn(3); k > 0; k-- {
			x, y := rng.Intn(n), rng.Intn(n)
			if x == y {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				edge(x, y) // extra edge: cycles, edges between joined tables
			case 1:
				where = append(where, fmt.Sprintf("%s < %s", col(x, "a"), col(y, "b")))
			default:
				where = append(where, fmt.Sprintf("((%s = %s AND %s > %s) OR NOT %s = %s)",
					col(x, "b"), col(y, "b"), col(y, "c"), lit("c"), col(x, "a"), lit("a")))
			}
		}
	}
	rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })

	items := "*"
	switch rng.Intn(4) {
	case 0:
		items = "COUNT(*)"
	case 1, 2:
		var list []string
		for k := 1 + rng.Intn(3); k > 0; k-- {
			list = append(list, col(rng.Intn(n), Cols[rng.Intn(4)]))
		}
		items = strings.Join(list, ", ")
		if rng.Intn(2) == 0 {
			items = "DISTINCT " + items
		}
	}
	sh.Query = fmt.Sprintf("SELECT %s FROM %s", items, strings.Join(from, ", "))
	if len(where) > 0 {
		sh.Query += " WHERE " + strings.Join(where, " AND ")
	}
	return sh
}
