package db

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// The DELETE differential test: random tables with duplicate rows and
// zero to two indexes (one- and two-column, so literal equalities bind
// whole keys, proper prefixes, or nothing), random WHERE clauses, and a
// brute-force filter of the pre-image as the model. Each statement runs
// untraced and under exec.Instrument; afterwards the maintained row
// count, a heap scan and every index agree with the model, key by key,
// for the keys that survived and the keys that were deleted.

type delRow struct {
	a int64
	b string
	c int64
}

func (r delRow) tuple() rel.Tuple {
	return rel.Tuple{rel.NewInt(r.a), rel.NewString(r.b), rel.NewInt(r.c)}
}

// delPred is the model of a WHERE clause.
type delPred interface {
	sql() string
	holds(r delRow) bool
}

// delCmp compares two operands, each a column (a, b, c) or a literal.
type delCmp struct {
	op          string
	left, right delOperand
}

type delOperand struct {
	col string // "" = literal
	val rel.Value
}

func (o delOperand) sql() string {
	if o.col != "" {
		return o.col
	}
	return o.val.SQL()
}

func (o delOperand) eval(r delRow) rel.Value {
	switch o.col {
	case "a":
		return rel.NewInt(r.a)
	case "b":
		return rel.NewString(r.b)
	case "c":
		return rel.NewInt(r.c)
	}
	return o.val
}

func (c delCmp) sql() string { return c.left.sql() + " " + c.op + " " + c.right.sql() }

func (c delCmp) holds(r delRow) bool {
	l, rt := c.left.eval(r), c.right.eval(r)
	cmp := 0
	if l.Kind == rel.TypeInt {
		cmp = int(l.Int - rt.Int)
	} else {
		cmp = strings.Compare(l.Str, rt.Str)
	}
	switch c.op {
	case "=":
		return cmp == 0
	case "<>", "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}

type delAnd struct{ l, r delPred }
type delOr struct{ l, r delPred }
type delNot struct{ p delPred }

func (p delAnd) sql() string         { return "(" + p.l.sql() + " AND " + p.r.sql() + ")" }
func (p delAnd) holds(r delRow) bool { return p.l.holds(r) && p.r.holds(r) }
func (p delOr) sql() string          { return "(" + p.l.sql() + " OR " + p.r.sql() + ")" }
func (p delOr) holds(r delRow) bool  { return p.l.holds(r) || p.r.holds(r) }
func (p delNot) sql() string         { return "NOT " + p.p.sql() }
func (p delNot) holds(r delRow) bool { return !p.p.holds(r) }

var delStrings = []string{"", "x", "y", "it's", "x y"}

// randomDelLiteral draws a literal of the column's type; one in eight
// matches no row.
func randomDelLiteral(rng *rand.Rand, col string) rel.Value {
	miss := rng.Intn(8) == 0
	if col == "b" {
		if miss {
			return rel.NewString("no'such")
		}
		return rel.NewString(delStrings[rng.Intn(len(delStrings))])
	}
	if miss {
		return rel.NewInt(99)
	}
	return rel.NewInt(int64(rng.Intn(4)))
}

func randomDelCmp(rng *rand.Rand, ops []string) delCmp {
	col := []string{"a", "b", "c"}[rng.Intn(3)]
	cmp := delCmp{op: ops[rng.Intn(len(ops))], left: delOperand{col: col}}
	switch k := rng.Intn(10); {
	case k == 0 && col != "b": // col op col
		cmp.right = delOperand{col: map[string]string{"a": "c", "c": "a"}[col]}
	case k == 1: // literal op literal
		cmp.left = delOperand{val: randomDelLiteral(rng, col)}
		cmp.right = delOperand{val: randomDelLiteral(rng, col)}
	default:
		cmp.right = delOperand{val: randomDelLiteral(rng, col)}
		if rng.Intn(3) == 0 { // literal on the left
			cmp.left, cmp.right = cmp.right, cmp.left
		}
	}
	return cmp
}

var delOps = []string{"=", "=", "=", "<>", "!=", "<", "<=", ">", ">="}

func randomDelPred(rng *rand.Rand, depth int) delPred {
	if depth == 0 || rng.Intn(3) == 0 {
		return randomDelCmp(rng, delOps)
	}
	switch rng.Intn(4) {
	case 0:
		return delOr{randomDelPred(rng, depth-1), randomDelPred(rng, depth-1)}
	case 1:
		return delNot{randomDelPred(rng, depth-1)}
	default:
		return delAnd{randomDelPred(rng, depth-1), randomDelPred(rng, depth-1)}
	}
}

// randomDelWhere is either a conjunction of literal equalities with an
// optional residual — the shape an index serves — or any predicate tree.
func randomDelWhere(rng *rand.Rand) delPred {
	if rng.Intn(2) == 0 {
		return randomDelPred(rng, 3)
	}
	var p delPred = randomDelCmp(rng, []string{"="})
	for n := rng.Intn(3); n > 0; n-- {
		p = delAnd{p, randomDelCmp(rng, []string{"="})}
	}
	if rng.Intn(3) == 0 {
		p = delAnd{p, randomDelPred(rng, 2)}
	}
	return p
}

var delIndexes = [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, {"c", "a"}}

// loadDelTable creates t holding rows under the given indexes.
func loadDelTable(t *testing.T, rows []delRow, indexes [][]string) *DB {
	t.Helper()
	d := OpenMemory()
	t.Cleanup(func() { d.Close() })
	mustExec(t, d, "CREATE TABLE t (a INTEGER, b CHAR, c INTEGER)")
	for _, cols := range indexes {
		mustExec(t, d, fmt.Sprintf("CREATE INDEX t_%s ON t (%s)", strings.Join(cols, ""), strings.Join(cols, ", ")))
	}
	tuples := make([]rel.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = r.tuple()
	}
	if err := d.InsertTuples("t", tuples); err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedTupleStrings(rows []delRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.tuple().String()
	}
	sort.Strings(out)
	return out
}

// checkDelTable holds t to the model: survivors are what the table, its
// row count, its heap and every index hold; every key of the pre-image,
// deleted or not, looks up exactly the surviving rows that carry it.
func checkDelTable(t *testing.T, ctx string, d *DB, pre, survivors []delRow) {
	t.Helper()
	want := sortedTupleStrings(survivors)
	if got := rowStrings(mustQuery(t, d, "SELECT * FROM t")); !slices.Equal(got, want) {
		t.Fatalf("%s\n t = %v\nwant %v", ctx, got, want)
	}
	tab := d.Table("t")
	if tab.Rows() != len(survivors) {
		t.Fatalf("%s: maintained row count %d, model %d", ctx, tab.Rows(), len(survivors))
	}
	n := 0
	if err := tab.Heap.Scan(func(storage.RID, []byte) error { n++; return nil }); err != nil || n != len(survivors) {
		t.Fatalf("%s: heap holds %d records (%v), model %d", ctx, n, err, len(survivors))
	}
	for _, idx := range tab.Indexes {
		if idx.Tree.Len() != len(survivors) {
			t.Fatalf("%s: index %s holds %d entries, model %d", ctx, idx.Name, idx.Tree.Len(), len(survivors))
		}
		keyOf := func(r delRow) rel.Tuple {
			tu := r.tuple()
			key := make(rel.Tuple, len(idx.Ords))
			for i, o := range idx.Ords {
				key[i] = tu[o]
			}
			return key
		}
		carry := map[string]int{}
		for _, r := range survivors {
			carry[keyOf(r).Key()]++
		}
		for _, r := range pre {
			key := keyOf(r)
			rids := idx.Tree.Lookup(key.Encode(nil))
			if len(rids) != carry[key.Key()] {
				t.Fatalf("%s: index %s key %v: %d postings, %d surviving rows carry it", ctx, idx.Name, key, len(rids), carry[key.Key()])
			}
			seen := map[storage.RID]bool{}
			for _, rid := range rids {
				var tu rel.Tuple
				err := tab.Heap.Read(rid, func(rec []byte) (err error) {
					tu, err = rel.DecodeTuple(rec, tab.Schema)
					return err
				})
				if err != nil || seen[rid] {
					t.Fatalf("%s: index %s key %v: posting %s: %v (duplicate: %v)", ctx, idx.Name, key, rid, err, seen[rid])
				}
				seen[rid] = true
				for i, o := range idx.Ords {
					if rel.Compare(tu[o], key[i]) != 0 {
						t.Fatalf("%s: index %s key %v points at %v", ctx, idx.Name, key, tu)
					}
				}
			}
		}
	}
}

func TestDeleteAgainstModel(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 80
	}
	indexedScans := 0
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		rows := make([]delRow, rng.Intn(25))
		for i := range rows {
			rows[i] = delRow{int64(rng.Intn(4)), delStrings[rng.Intn(len(delStrings))], int64(rng.Intn(4))}
		}
		var indexes [][]string
		for _, i := range rng.Perm(len(delIndexes))[:rng.Intn(3)] {
			indexes = append(indexes, delIndexes[i])
		}
		where := randomDelWhere(rng)
		var survivors []delRow
		for _, r := range rows {
			if !where.holds(r) {
				survivors = append(survivors, r)
			}
		}
		stmt := "DELETE FROM t WHERE " + where.sql()
		ctx := fmt.Sprintf("seed %d: %s (indexes %v)", seed, stmt, indexes)

		for _, traced := range []bool{false, true} {
			d := loadDelTable(t, rows, indexes)
			var tr *obs.Trace
			var sp *obs.Span
			if traced {
				tr = obs.NewTrace("stmt")
				sp = tr.Root()
			}
			var st *Stmt
			if traced {
				st = mustPrepare(t, d, stmt)
			}
			before := d.StatsSnapshot()
			var err error
			if traced {
				err = st.Exec(context.Background(), d, sp, nil)
			} else {
				err = d.Exec(stmt)
			}
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if after := d.StatsSnapshot(); after.Deletes != before.Deletes+1 || after.Selects != before.Selects {
				t.Fatalf("%s: counted as %+v after %+v", ctx, after, before)
			}
			checkDelTable(t, ctx, d, rows, survivors)
			if !traced {
				continue
			}
			// The statement's operator tree: one access path carrying the
			// planner's estimate, and on top of it the victims.
			scans := append(tr.Root().FindAll("scan(t)"), tr.Root().FindAll("idxscan(t.")...)
			if len(scans) != 1 {
				t.Fatalf("%s: traced DELETE shows %d access paths:\n%s", ctx, len(scans), tr.Format())
			}
			if _, ok := scans[0].Int("est"); !ok {
				t.Errorf("%s: access path carries no est=:\n%s", ctx, tr.Format())
			}
			if strings.HasPrefix(scans[0].Name, "idxscan") {
				indexedScans++
			} else if got, _ := scans[0].Int("rows"); got != int64(len(rows)) {
				t.Errorf("%s: scan rows=%d, table held %d\n%s", ctx, got, len(rows), tr.Format())
			}
			if got, _ := tr.Root().Children[0].Int("rows"); got != int64(len(rows)-len(survivors)) {
				t.Errorf("%s: top operator rows=%d, model deletes %d\n%s", ctx, got, len(rows)-len(survivors), tr.Format())
			}
			// Deleting again finds nothing.
			if err := d.Exec(stmt); err != nil {
				t.Fatalf("%s: second run: %v", ctx, err)
			}
			checkDelTable(t, ctx+" (again)", d, rows, survivors)
		}
	}
	if indexedScans < cases/20 {
		t.Errorf("only %d of %d statements went through an index: the generator no longer exercises the indexed path", indexedScans, cases)
	}
}

// TestDeleteRejectsBadPredicates: a WHERE clause the planner cannot bind
// fails the statement and leaves the table as it was.
func TestDeleteRejectsBadPredicates(t *testing.T) {
	rows := []delRow{{1, "x", 1}, {2, "y", 2}}
	d := loadDelTable(t, rows, [][]string{{"a"}})
	for _, stmt := range []string{
		"DELETE FROM t WHERE zz = 1",
		"DELETE FROM t WHERE a = 'x'",
		"DELETE FROM t WHERE u.a = 1",
		"DELETE FROM nosuch WHERE a = 1",
	} {
		if err := d.Exec(stmt); err == nil {
			t.Errorf("%s: accepted", stmt)
		}
	}
	checkDelTable(t, "after rejected statements", d, rows, rows)
	mustExec(t, d, "DELETE FROM t WHERE t.a = 1")
	checkDelTable(t, "qualified column", d, rows, rows[1:])
}

// TestDeleteAccessPath: a DELETE run through Exec finds its victims
// through the access path SELECT * FROM t WHERE p would take — an
// IndexScan when literal equalities bind an index prefix, which reads
// no heap page in order, a SeqScan otherwise — and re-checks the whole
// predicate on every candidate, so it deletes exactly the rows p holds
// for.
func TestDeleteAccessPath(t *testing.T) {
	for _, tc := range []struct {
		stmt    string
		indexed bool
		victims int
	}{
		{"DELETE FROM e WHERE a >= 3 AND b <> 1", false, 88},
		{"DELETE FROM e WHERE b = 4 AND a < 50", true, 5},
		{"DELETE FROM e WHERE 4 = e.b", true, 10},
		{"DELETE FROM e WHERE b = 4 OR a = 1", false, 11},
	} {
		d := OpenMemory()
		mustExec(t, d, "CREATE TABLE e (a INTEGER, b INTEGER)")
		for i := 0; i < 100; i++ {
			mustExec(t, d, fmt.Sprintf("INSERT INTO e VALUES (%d, %d)", i, i%10))
		}
		mustExec(t, d, "CREATE INDEX e_b ON e (b)")
		heap := d.Table("e").Heap
		before := heap.Stats()
		mustExec(t, d, tc.stmt)
		if scans := heap.Stats().Sub(before).Scans; (scans == 0) != tc.indexed {
			t.Errorf("%s: %d heap scans, want indexed=%v", tc.stmt, scans, tc.indexed)
		}
		if n := 100 - d.TableRows("e"); n != tc.victims {
			t.Errorf("%s: %d victims, want %d", tc.stmt, n, tc.victims)
		}
		rest, err := d.QueryCount("SELECT COUNT(*) FROM e WHERE " + strings.TrimPrefix(tc.stmt, "DELETE FROM e WHERE "))
		if err != nil || rest != 0 {
			t.Errorf("%s: %d rows it holds for survive (%v)", tc.stmt, rest, err)
		}
	}
	d := OpenMemory()
	mustExec(t, d, "CREATE TABLE e (a INTEGER, b INTEGER)")
	for _, stmt := range []string{"DELETE FROM e WHERE zz = 3", "DELETE FROM nosuch WHERE a = 3"} {
		if err := d.Exec(stmt); err == nil {
			t.Errorf("%s: accepted", stmt)
		}
	}
}
