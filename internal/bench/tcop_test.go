package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dkbms"
	"dkbms/internal/rel"
)

// tcStore returns a testbed holding the edges of e, each "a>b", and
// anc, its closure, as rules.
func tcStore(t *testing.T, edges ...string) *dkbms.Testbed {
	t.Helper()
	tb := dkbms.NewMemory()
	t.Cleanup(func() { tb.Close() })
	tuples := make([]rel.Tuple, len(edges))
	for i, e := range edges {
		from, to, _ := strings.Cut(e, ">")
		tuples[i] = rel.Tuple{rel.NewString(from), rel.NewString(to)}
	}
	if err := tb.AssertTuples("e", tuples); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad("anc(X, Y) :- e(X, Y).\nanc(X, Y) :- e(X, Z), anc(Z, Y).\n")
	return tb
}

// lfp returns the rows the run-time library's LFP loop answers q with.
func lfp(t *testing.T, tb *dkbms.Testbed, q string) []rel.Tuple {
	t.Helper()
	res, err := tb.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func rowSet(rows []rel.Tuple) string {
	out := make([]string, len(rows))
	for i, tu := range rows {
		out[i] = tu.String()
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

func TestTCSingleSourceMatchesLFP(t *testing.T) {
	tb := tcStore(t, "a>b", "b>c", "c>a", "c>d") // cycle + tail
	want := map[string]bool{}
	for _, tu := range lfp(t, tb, "?- anc(a, Y).") {
		want[tu[0].Str] = true
	}
	seed := rel.NewString("a")
	rows, err := tcOp(tb.DB(), "e", &seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("TC found %d, LFP %d", len(rows), len(want))
	}
	for _, tu := range rows {
		if tu[0].Str != "a" || !want[tu[1].Str] {
			t.Fatalf("unexpected pair %v", tu)
		}
	}
}

func TestTCFullClosureMatchesLFP(t *testing.T) {
	tb := tcStore(t, "a>b", "b>c", "b>d", "d>b")
	want := lfp(t, tb, "?- anc(X, Y).")
	rows, err := tcOp(tb.DB(), "e", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(rows) != rowSet(want) {
		t.Fatalf("closures differ:\nTC:  %s\nLFP: %s", rowSet(rows), rowSet(want))
	}
}

func TestTCErrors(t *testing.T) {
	tb := dkbms.NewMemory()
	defer tb.Close()
	d := tb.DB()
	if _, err := tcOp(d, "ghost", nil); err == nil {
		t.Fatal("missing relation accepted")
	}
	if err := d.Exec("CREATE TABLE edb_tri (a INTEGER, b INTEGER, c INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tcOp(d, "tri", nil); err == nil {
		t.Fatal("ternary relation accepted")
	}
}

func TestTCIntegerDomain(t *testing.T) {
	tb := dkbms.NewMemory()
	defer tb.Close()
	d := tb.DB()
	if err := d.Exec("CREATE TABLE edb_n (c0 INTEGER, c1 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Exec(fmt.Sprintf("INSERT INTO edb_n VALUES (%d, %d)", i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	seed := rel.NewInt(0)
	rows, err := tcOp(d, "n", &seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("reachable = %d, want 10", len(rows))
	}
}
