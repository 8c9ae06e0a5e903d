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
)

// The set-operation differential test: random small tables with
// duplicates and empty sides, every kind of set operation, chains, and
// the LFP's self-referential INSERT ... EXCEPT SELECT * FROM t, checked
// against a brute-force model over Go maps. Each statement runs
// untraced and under exec.Instrument, with every operand once as
// SELECT * (a bare scan: the right side of a set operation reads stored
// records, undecoded) and once as SELECT a, b (a projection: decoded
// tuples), and all runs must agree with the model. Under tracing every
// scan span's rows= must be the size of the table it read — the check
// that the raw-record path does not bypass the counting wrapper.

type diffRow struct {
	a int64
	b string
}

func (r diffRow) String() string { return fmt.Sprintf("(%d, %s)", r.a, r.b) }

// diffTables is the model: bags of rows by table name.
type diffTables map[string][]diffRow

func randomDiffTables(rng *rand.Rand) diffTables {
	strs := []string{"", "x", "y", "xy", "\x01x"}
	tabs := diffTables{}
	for _, name := range []string{"l", "m", "r", "t"} {
		n := rng.Intn(9) // 0: an empty side
		if rng.Intn(4) == 0 {
			n = 0
		}
		rows := make([]diffRow, n)
		for i := range rows {
			rows[i] = diffRow{int64(rng.Intn(4)), strs[rng.Intn(len(strs))]}
		}
		tabs[name] = rows
	}
	return tabs
}

func (tabs diffTables) load(t *testing.T) *DB {
	t.Helper()
	d := OpenMemory()
	t.Cleanup(func() { d.Close() })
	for name, rows := range tabs {
		mustExec(t, d, "CREATE TABLE "+name+" (a INTEGER, b CHAR)")
		tuples := make([]rel.Tuple, len(rows))
		for i, r := range rows {
			tuples[i] = rel.Tuple{rel.NewInt(r.a), rel.NewString(r.b)}
		}
		if err := d.InsertTuples(name, tuples); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// diffChain is t0 op1 t1 op2 t2 ..., evaluated left to right.
type diffChain struct {
	tables []string
	ops    []string // "UNION", "UNION ALL", "EXCEPT", "INTERSECT"
}

func randomDiffChain(rng *rand.Rand, steps int, kinds, tables []string) diffChain {
	c := diffChain{tables: []string{tables[rng.Intn(len(tables))]}}
	for i := 0; i < steps; i++ {
		c.ops = append(c.ops, kinds[rng.Intn(len(kinds))])
		c.tables = append(c.tables, tables[rng.Intn(len(tables))])
	}
	return c
}

// sql renders the chain; operand i reads SELECT * when raw, the
// equivalent projection otherwise, DISTINCT where distinct[i].
func (c diffChain) sql(raw bool, distinct []bool) string {
	var b strings.Builder
	for i, tab := range c.tables {
		if i > 0 {
			b.WriteString(" " + c.ops[i-1] + " ")
		}
		b.WriteString("SELECT ")
		if distinct[i] {
			b.WriteString("DISTINCT ")
		}
		if raw {
			b.WriteString("* FROM " + tab)
		} else {
			b.WriteString("a, b FROM " + tab)
		}
	}
	return b.String()
}

func dedupRows(rows []diffRow) []diffRow {
	seen := map[diffRow]bool{}
	var out []diffRow
	for _, r := range rows {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// eval is the brute-force model of the chain.
func (c diffChain) eval(tabs diffTables, distinct []bool) []diffRow {
	operand := func(i int) []diffRow {
		if distinct[i] {
			return dedupRows(tabs[c.tables[i]])
		}
		return tabs[c.tables[i]]
	}
	cur := operand(0)
	for i, op := range c.ops {
		right := operand(i + 1)
		in := map[diffRow]bool{}
		for _, r := range right {
			in[r] = true
		}
		var next []diffRow
		switch op {
		case "UNION ALL":
			next = append(append(next, cur...), right...)
		case "UNION":
			next = dedupRows(append(append(next, cur...), right...))
		case "EXCEPT":
			for _, r := range dedupRows(cur) {
				if !in[r] {
					next = append(next, r)
				}
			}
		case "INTERSECT":
			for _, r := range dedupRows(cur) {
				if in[r] {
					next = append(next, r)
				}
			}
		}
		cur = next
	}
	return cur
}

func sortedRowStrings(rows []diffRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// checkScanRows asserts that every scan span under root reports as
// rows= and as heap_recs= the size of the table it read. sizes holds
// the table sizes when the statement ran; a table the statement scans
// more than once shares its heap counters, so heap_recs is only checked
// for tables scanned once.
func checkScanRows(t *testing.T, stmt string, tr *obs.Trace, sizes map[string]int) {
	t.Helper()
	scans := tr.Root().FindAll("scan(")
	if len(scans) == 0 {
		t.Fatalf("%s: traced run recorded no scan:\n%s", stmt, tr.Format())
	}
	times := map[string]int{}
	for _, sp := range scans {
		times[sp.Name]++
	}
	for _, sp := range scans {
		table := strings.TrimSuffix(strings.TrimPrefix(sp.Name, "scan("), ")")
		want := int64(sizes[table])
		if rows, _ := sp.Int("rows"); rows != want {
			t.Errorf("%s: %s rows=%d, table holds %d\n%s", stmt, sp.Name, rows, want, tr.Format())
		}
		if recs, ok := sp.Int("heap_recs"); times[sp.Name] == 1 && (!ok || recs != want) {
			t.Errorf("%s: %s heap_recs=%d, table holds %d\n%s", stmt, sp.Name, recs, want, tr.Format())
		}
	}
}

func sizesOf(tabs diffTables) map[string]int {
	sizes := map[string]int{}
	for name, rows := range tabs {
		sizes[name] = len(rows)
	}
	return sizes
}

func TestSetOpsAgainstModel(t *testing.T) {
	kinds := []string{"UNION", "UNION ALL", "EXCEPT", "INTERSECT"}
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tabs := randomDiffTables(rng)
		var c diffChain
		switch seed % 3 {
		case 0: // one operation of each kind in turn
			c = randomDiffChain(rng, 1, kinds[seed/3%4:seed/3%4+1], []string{"l", "m", "r"})
		case 1: // the LFP's shape: A EXCEPT B EXCEPT C
			c = randomDiffChain(rng, 2, []string{"EXCEPT"}, []string{"l", "m", "r"})
		default:
			c = randomDiffChain(rng, 1+rng.Intn(3), kinds, []string{"l", "m", "r"})
		}
		distinct := make([]bool, len(c.tables))
		for i := range distinct {
			distinct[i] = rng.Intn(3) == 0
		}
		want := sortedRowStrings(c.eval(tabs, distinct))
		d := tabs.load(t)
		for _, raw := range []bool{true, false} {
			stmt := c.sql(raw, distinct)
			if got := rowStrings(mustQuery(t, d, stmt)); !slices.Equal(got, want) {
				t.Fatalf("seed %d: %s\n got %v\nwant %v\ntables %v", seed, stmt, got, want, tabs)
			}
			tr := obs.NewTrace("query")
			rows, err := mustPrepare(t, d, stmt).Query(context.Background(), d, tr.Root(), nil)
			if err != nil {
				t.Fatalf("seed %d: traced %s: %v", seed, stmt, err)
			}
			if got := rowStrings(rows); !slices.Equal(got, want) {
				t.Fatalf("seed %d: traced %s\n got %v\nwant %v\ntables %v", seed, stmt, got, want, tabs)
			}
			checkScanRows(t, stmt, tr, sizesOf(tabs))
			// Down the left spine, each set operation reports the rows
			// of its prefix of the chain — also when an outer operation
			// took its result over instead of draining it.
			sp := tr.Root().Children[0]
			for k := len(c.ops); k >= 1; k-- {
				prefix := diffChain{tables: c.tables[:k+1], ops: c.ops[:k]}
				if rows, _ := sp.Int("rows"); rows != int64(len(prefix.eval(tabs, distinct))) {
					t.Fatalf("seed %d: %s: step %d (%s) rows=%d, model %d\n%s", seed, stmt, k, sp.Name,
						rows, len(prefix.eval(tabs, distinct)), tr.Format())
				}
				sp = sp.Children[0]
			}
		}
	}
}

// TestSelfReferentialInsertAgainstModel runs the statement every LFP
// round issues per rule,
//
//	INSERT INTO t <chain> EXCEPT SELECT * FROM t
//
// so t gains exactly the chain's tuples it lacks, and checks t, the
// inserted-row count and the scan spans; then the two identity-only
// statements beside it: COUNT(*) over the table and the promotion
// INSERT INTO u SELECT * FROM t into an index-less and an indexed u.
func TestSelfReferentialInsertAgainstModel(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		tabs := randomDiffTables(rng)
		c := randomDiffChain(rng, rng.Intn(2), []string{"EXCEPT", "UNION", "INTERSECT"}, []string{"l", "m", "r"})
		c.ops = append(c.ops, "EXCEPT")
		c.tables = append(c.tables, "t")
		distinct := make([]bool, len(c.tables))
		distinct[0] = rng.Intn(2) == 0
		added := c.eval(tabs, distinct)
		want := sortedRowStrings(append(append([]diffRow(nil), tabs["t"]...), added...))

		for _, traced := range []bool{false, true} {
			for _, raw := range []bool{true, false} {
				d := tabs.load(t)
				stmt := "INSERT INTO t " + c.sql(raw, distinct)
				var tr *obs.Trace
				var sp *obs.Span
				if traced {
					tr = obs.NewTrace("stmt")
					sp = tr.Root()
				}
				before := d.StatsSnapshot().InsertedRows
				if err := mustPrepare(t, d, stmt).Exec(context.Background(), d, sp, nil); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, stmt, err)
				}
				if got := d.StatsSnapshot().InsertedRows - before; got != int64(len(added)) {
					t.Fatalf("seed %d: %s inserted %d rows, model %d", seed, stmt, got, len(added))
				}
				if traced {
					checkScanRows(t, stmt, tr, sizesOf(tabs))
				}
				if got := rowStrings(mustQuery(t, d, "SELECT * FROM t")); !slices.Equal(got, want) {
					t.Fatalf("seed %d: after %s\n t = %v\nwant %v\ntables %v", seed, stmt, got, want, tabs)
				}
				if d.TableRows("t") != len(want) {
					t.Fatalf("seed %d: maintained row count %d, table holds %d", seed, d.TableRows("t"), len(want))
				}

				// COUNT(*) and the promotion copy, same traced mode.
				sizes := map[string]int{"t": len(want)}
				if traced {
					tr = obs.NewTrace("stmt")
					sp = tr.Root()
				}
				rows, err := mustPrepare(t, d, "SELECT COUNT(*) FROM t").Query(context.Background(), d, sp, nil)
				if err != nil || len(rows.Tuples) != 1 || rows.Tuples[0][0].Int != int64(len(want)) {
					t.Fatalf("seed %d: COUNT(*) = %v, %v; want %d", seed, rows, err, len(want))
				}
				if traced {
					checkScanRows(t, "COUNT(*)", tr, sizes)
				}
				mustExec(t, d, "CREATE TABLE u (a INTEGER, b CHAR)", "CREATE TABLE ui (a INTEGER, b CHAR)",
					"CREATE INDEX ui_a ON ui (a)")
				for _, into := range []string{"u", "ui"} {
					if traced {
						tr = obs.NewTrace("stmt")
						sp = tr.Root()
					}
					if err := mustPrepare(t, d, "INSERT INTO "+into+" SELECT * FROM t").Exec(context.Background(), d, sp, nil); err != nil {
						t.Fatal(err)
					}
					if traced {
						checkScanRows(t, "INSERT INTO "+into, tr, sizes)
					}
					if got := rowStrings(mustQuery(t, d, "SELECT * FROM "+into)); !slices.Equal(got, want) {
						t.Fatalf("seed %d: %s = %v after the copy, want %v", seed, into, got, want)
					}
					if d.TableRows(into) != len(want) {
						t.Fatalf("seed %d: %s row count %d, want %d", seed, into, d.TableRows(into), len(want))
					}
				}
				// The index of ui saw every copied row.
				if len(want) > 0 {
					a := strings.SplitN(strings.TrimPrefix(want[0], "("), ",", 2)[0]
					n := 0
					for _, w := range want {
						if strings.HasPrefix(w, "("+a+",") {
							n++
						}
					}
					if got := len(mustQuery(t, d, "SELECT * FROM ui WHERE a = "+a).Tuples); got != n {
						t.Fatalf("seed %d: index probe a=%s found %d rows, want %d", seed, a, got, n)
					}
				}
			}
		}
	}
}

// TestSetOpIncompatibleTypes: the raw-record path must not let a type
// mismatch through (a stored record is only a key under its own types).
func TestSetOpIncompatibleTypes(t *testing.T) {
	d := OpenMemory()
	defer d.Close()
	mustExec(t, d, "CREATE TABLE p (a INTEGER, b CHAR)", "CREATE TABLE q (a CHAR, b INTEGER)",
		"INSERT INTO p VALUES (1, 'x')", "INSERT INTO q VALUES ('x', 1)")
	for _, stmt := range []string{
		"SELECT * FROM p EXCEPT SELECT * FROM q",
		"SELECT * FROM p INTERSECT SELECT * FROM q",
		"SELECT * FROM p UNION SELECT * FROM q",
		"SELECT * FROM p EXCEPT SELECT * FROM p EXCEPT SELECT * FROM q",
	} {
		if _, err := d.Query(stmt); err == nil {
			t.Errorf("%s: accepted", stmt)
		}
	}
	if err := d.Exec("INSERT INTO p SELECT * FROM q"); err == nil {
		t.Error("INSERT INTO p SELECT * FROM q: accepted")
	}
}
