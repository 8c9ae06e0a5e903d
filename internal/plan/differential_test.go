package plan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/exec"
	"dkbms/internal/rel"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
)

// A shape is one differential case: physical tables and a SELECT over
// them. Every table has int columns a, b, c and a string column s; rows
// are drawn from a small domain (seeded per table) so that joins match.
type shape struct {
	tables []tableSpec
	query  string
}

type tableSpec struct {
	name    string
	rows    int
	seed    int64
	indexes [][]string
}

var shapeCols = []string{"a", "b", "c", "s"}

func (sh shape) String() string {
	var b strings.Builder
	for _, t := range sh.tables {
		fmt.Fprintf(&b, "{name: %q, rows: %d, seed: %d, indexes: %#v}\n", t.name, t.rows, t.seed, t.indexes)
	}
	b.WriteString(sh.query)
	return b.String()
}

func (sh shape) catalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := setup(t)
	for _, ts := range sh.tables {
		tb, err := c.CreateTable(ts.name, rel.MustSchema(
			rel.Column{Name: "a", Type: rel.TypeInt},
			rel.Column{Name: "b", Type: rel.TypeInt},
			rel.Column{Name: "c", Type: rel.TypeInt},
			rel.Column{Name: "s", Type: rel.TypeString},
		), false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(ts.seed))
		for i := 0; i < ts.rows; i++ {
			tu := rel.Tuple{
				rel.NewInt(int64(rng.Intn(4))),
				rel.NewInt(int64(rng.Intn(6))),
				rel.NewInt(int64(rng.Intn(ts.rows + 1))),
				rel.NewString(fmt.Sprintf("x%d", rng.Intn(3))),
			}
			if _, err := tb.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		for i, cols := range ts.indexes {
			if _, err := c.CreateIndex(fmt.Sprintf("%s_ix%d", ts.name, i), ts.name, cols, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// check plans and runs the shape's query and compares the multiset of
// result rows with the brute-force reference. Then the value-parameter
// axis: the same query with literals compared with a column turned into
// ?1..?k (each with even odds, rng choosing), prepared once and built
// with those literals as values, must be planned exactly as the literal
// query — order, access paths, methods, estimates, bound predicates —
// and return its rows.
func (sh shape) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	c := sh.catalog(t)
	st, err := sql.Parse(sh.query)
	if err != nil {
		t.Fatalf("%v\n%s", err, sh)
	}
	sel := st.(*sql.Select)
	op, err := BuildSelect(c, sel)
	if err != nil {
		t.Fatalf("plan: %v\n%s", err, sh)
	}
	plan := planString(op)
	got := sortedRows(t, op, sh)
	want := bruteForce(t, c, sel)
	sort.Strings(want)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("planned query returned %d rows, brute force %d; sorted rows differ from #%d: %v vs %v\n%s",
				len(got), len(want), i, got[min(i, len(got)):min(i+3, len(got))], want[min(i, len(want)):min(i+3, len(want))], sh)
		}
	}

	param := *sel
	var vals []rel.Value
	param.Where = withValueParams(sel.Where, rng, &vals)
	p, err := Prepare(c, &param, nil)
	if err != nil {
		t.Fatalf("prepare with %d value parameters: %v\n%s", len(vals), err, sh)
	}
	op, err = p.Build(c, nil, vals)
	if err != nil {
		t.Fatalf("build with values %v: %v\n%s", vals, err, sh)
	}
	if pp := planString(op); pp != plan {
		t.Fatalf("bound to %v, WHERE %s plans\n%s\nthe literal query plans\n%s\n%s", vals, sql.FormatExpr(param.Where), pp, plan, sh)
	}
	if pGot := sortedRows(t, op, sh); fmt.Sprint(pGot) != fmt.Sprint(got) {
		t.Fatalf("bound to %v, WHERE %s returned %d rows, the literal query %d\n%s", vals, sql.FormatExpr(param.Where), len(pGot), len(got), sh)
	}
}

// withValueParams copies a WHERE clause with each literal compared with
// a column replaced, with even odds, by the next value parameter, whose
// value it appends to vals.
func withValueParams(e sql.Expr, rng *rand.Rand, vals *[]rel.Value) sql.Expr {
	switch v := e.(type) {
	case sql.And:
		return sql.And{Left: withValueParams(v.Left, rng, vals), Right: withValueParams(v.Right, rng, vals)}
	case sql.Or:
		return sql.Or{Left: withValueParams(v.Left, rng, vals), Right: withValueParams(v.Right, rng, vals)}
	case sql.Not:
		return sql.Not{Inner: withValueParams(v.Inner, rng, vals)}
	case sql.Compare:
		param := func(side sql.Expr, other sql.Expr) sql.Expr {
			lit, isLit := side.(sql.Literal)
			if _, isCol := other.(sql.ColRef); !isLit || !isCol || rng.Intn(2) == 0 {
				return side
			}
			*vals = append(*vals, lit.Value)
			return sql.ValueParam{N: len(*vals)}
		}
		v.Left, v.Right = param(v.Left, v.Right), param(v.Right, v.Left)
		return v
	}
	return e
}

// planString renders a plan with everything Build decided: the
// operators and their order, tables and indexes, estimates, probe keys
// and bound predicates.
func planString(op exec.Operator) string {
	switch v := op.(type) {
	case *exec.Project:
		return fmt.Sprintf("project%v(%s)", v.Exprs, planString(v.Input))
	case *exec.Filter:
		return fmt.Sprintf("filter[%v](%s)", v.Pred, planString(v.Input))
	case *exec.Distinct:
		return "distinct(" + planString(v.Input) + ")"
	case *exec.CountStar:
		return "count(" + planString(v.Input) + ")"
	case *exec.SeqScan:
		return fmt.Sprintf("seq %s est=%g", v.Table.Name, v.Est)
	case *exec.IndexScan:
		return fmt.Sprintf("index %s[%s] key=%v est=%g", v.Table.Name, v.Index.Name, v.Key, v.Est)
	case *exec.HashJoin:
		return fmt.Sprintf("hash%v%v left=%v est=%g(%s, %s)", v.LeftOrds, v.RightOrds, v.BuildLeft, v.Est, planString(v.Left), planString(v.Right))
	case *exec.NLJoin:
		return fmt.Sprintf("cross est=%g(%s, %s)", v.Est, planString(v.Left), planString(v.Right))
	case *exec.IndexNLJoin:
		return fmt.Sprintf("probe %s[%s]%v [%v] est=%g(%s)", v.Right.Name, v.Index.Name, v.LeftOrds, v.Residual, v.Est, planString(v.Left))
	case *exec.SetOpExec:
		return fmt.Sprintf("setop%d(%s, %s)", v.Kind, planString(v.Left), planString(v.Right))
	}
	return fmt.Sprintf("%T", op)
}

// bruteForce evaluates a simple SELECT as the definition reads: the
// cross product of the FROM tables in FROM order, filtered by the whole
// WHERE clause, projected. It interprets the parsed statement itself and
// shares nothing with the planner's predicate analysis or binding.
func bruteForce(t *testing.T, c *catalog.Catalog, sel *sql.Select) []string {
	t.Helper()
	tables := make([][]rel.Tuple, len(sel.From))
	schemas := make([]*rel.Schema, len(sel.From))
	for i, tr := range sel.From {
		tb := c.Table(tr.Table)
		schemas[i] = tb.Schema
		if err := tb.Scan(func(_ storage.RID, tu rel.Tuple) error {
			tables[i] = append(tables[i], tu)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	value := func(row []rel.Tuple, e sql.Expr) rel.Value {
		switch v := e.(type) {
		case sql.Literal:
			return v.Value
		case sql.ColRef:
			for i, tr := range sel.From {
				if tr.Alias == v.Table {
					return row[i][schemas[i].Ordinal(v.Column)]
				}
			}
		}
		t.Fatalf("reference: cannot evaluate %#v", e)
		return rel.Value{}
	}
	var holds func(row []rel.Tuple, e sql.Expr) bool
	holds = func(row []rel.Tuple, e sql.Expr) bool {
		switch v := e.(type) {
		case sql.And:
			return holds(row, v.Left) && holds(row, v.Right)
		case sql.Or:
			return holds(row, v.Left) || holds(row, v.Right)
		case sql.Not:
			return !holds(row, v.Inner)
		case sql.Compare:
			r := rel.Compare(value(row, v.Left), value(row, v.Right))
			switch v.Op {
			case sql.CmpEq:
				return r == 0
			case sql.CmpNe:
				return r != 0
			case sql.CmpLt:
				return r < 0
			case sql.CmpLe:
				return r <= 0
			case sql.CmpGt:
				return r > 0
			case sql.CmpGe:
				return r >= 0
			}
		}
		t.Fatalf("reference: cannot evaluate %#v", e)
		return false
	}
	var out []string
	row := make([]rel.Tuple, len(tables))
	var walk func(i int)
	walk = func(i int) {
		if i < len(tables) {
			for _, tu := range tables[i] {
				row[i] = tu
				walk(i + 1)
			}
			return
		}
		if sel.Where != nil && !holds(row, sel.Where) {
			return
		}
		var tu rel.Tuple
		if len(sel.Items) == 0 {
			for _, part := range row {
				tu = append(tu, part...)
			}
		}
		for _, item := range sel.Items {
			tu = append(tu, value(row, item.Expr))
		}
		out = append(out, tu.String())
	}
	walk(0)
	if sel.CountStar {
		return []string{rel.Tuple{rel.NewInt(int64(len(out)))}.String()}
	}
	if sel.Distinct {
		sort.Strings(out)
		uniq := out[:0]
		for i, s := range out {
			if i == 0 || s != out[i-1] {
				uniq = append(uniq, s)
			}
		}
		out = uniq
	}
	return out
}

// randomShape draws 1–5 FROM entries over 1–3 physical tables (so
// aliases of one table self-join), random sizes and indexes, literal
// predicates, and an equijoin graph that is a chain, a chain with extra
// and multi-column edges, or missing edges (cross products); now and
// then a non-equi or disjunctive cross-table residual.
func randomShape(rng *rand.Rand) shape {
	var sh shape
	n := 1 + rng.Intn(5)
	// Keep the reference's cross product near 50 000 rows.
	maxRows := int(math.Min(60, math.Pow(50000, 1/float64(n))))
	for i, np := 0, 1+rng.Intn(3); i < np; i++ {
		ts := tableSpec{name: fmt.Sprintf("r%d", i), rows: rng.Intn(maxRows + 1), seed: rng.Int63()}
		for k := rng.Intn(3); k > 0; k-- {
			cols := []string{shapeCols[rng.Intn(4)]}
			if other := shapeCols[rng.Intn(4)]; other != cols[0] && rng.Intn(2) == 0 {
				cols = append(cols, other)
			}
			ts.indexes = append(ts.indexes, cols)
		}
		sh.tables = append(sh.tables, ts)
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
		from = append(from, fmt.Sprintf("%s t%d", sh.tables[rng.Intn(len(sh.tables))].name, ti))
		if rng.Intn(3) == 0 {
			c := shapeCols[rng.Intn(4)]
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
		c := shapeCols[rng.Intn(4)]
		d := c
		if c != "s" {
			d = shapeCols[rng.Intn(3)]
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
			list = append(list, col(rng.Intn(n), shapeCols[rng.Intn(4)]))
		}
		items = strings.Join(list, ", ")
		if rng.Intn(2) == 0 {
			items = "DISTINCT " + items
		}
	}
	sh.query = fmt.Sprintf("SELECT %s FROM %s", items, strings.Join(from, ", "))
	if len(where) > 0 {
		sh.query += " WHERE " + strings.Join(where, " AND ")
	}
	return sh
}

// TestPlanAgreesWithBruteForce is the planner's differential property:
// whatever order, access paths and join methods the cost model picks,
// the rows are those of the cross product filtered by the WHERE clause.
func TestPlanAgreesWithBruteForce(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomShape(rng).check(t, rng)
	}
}

// TestPlanNamedShapes pins the shapes whose handling is easiest to get
// wrong, through the same check. (No generated shape failed while the
// cost-based ordering was written — 30 000 seeds were run once — so
// these are chosen by what the code has to special-case, not by past
// failures.)
func TestPlanNamedShapes(t *testing.T) {
	for _, tc := range namedShapes() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { tc.check(t, rand.New(rand.NewSource(1))) })
	}
}

// namedShape is a shape with the reason it is pinned.
type namedShape struct {
	name string
	shape
}

func namedShapes() []namedShape {
	small := tableSpec{name: "small", rows: 4, seed: 1}
	big := func(indexes ...[]string) tableSpec {
		return tableSpec{name: "big", rows: 60, seed: 2, indexes: indexes}
	}
	return []namedShape{
		{"two equalities on one index column", shape{[]tableSpec{small, big([]string{"a"})},
			"SELECT * FROM small t0, small t1, big t2 WHERE t0.a = t2.a AND t1.b = t2.a"}},
		{"index covers a prefix of the join columns", shape{[]tableSpec{small, big([]string{"a", "c"})},
			"SELECT * FROM small t0, big t1 WHERE t0.a = t1.a AND t0.b = t1.b"}},
		{"multi-column index key from two prefix tables", shape{[]tableSpec{small, big([]string{"s", "a"})},
			"SELECT t2.c FROM small t0, small t1, big t2 WHERE t0.s = t2.s AND t1.a = t2.a AND t0.c = t1.c"}},
		{"literal and join on the indexed column", shape{[]tableSpec{small, big([]string{"a"})},
			"SELECT * FROM small t0, big t1 WHERE t1.a = 2 AND t0.b = t1.a AND t1.c > 5"}},
		{"hash join built on the prefix, with residual", shape{[]tableSpec{small, big()},
			"SELECT * FROM small t0, big t1 WHERE t0.a = t1.a AND t0.c < t1.b"}},
		{"self-join of an indexed table", shape{[]tableSpec{big([]string{"b"})},
			"SELECT DISTINCT t0.a, t1.c FROM big t0, big t1 WHERE t0.c = t1.b AND t0.a = 1"}},
		{"cycle: the last edge joins two attached tables", shape{[]tableSpec{small, big([]string{"a"})},
			"SELECT COUNT(*) FROM small t0, big t1, big t2 WHERE t0.a = t1.a AND t1.b = t2.b AND t0.a = t2.a"}},
		{"cross product with an empty table", shape{[]tableSpec{small, {name: "none"}},
			"SELECT * FROM small t0, none t1, small t2 WHERE t0.a = t2.a"}},
		{"disconnected pairs", shape{[]tableSpec{small, big([]string{"a"})},
			"SELECT COUNT(*) FROM small t0, big t1, small t2, big t3 WHERE t0.a = t1.a AND t2.a = t3.a AND t0.b <> t2.b"}},
	}
}
