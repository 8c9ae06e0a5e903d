package dkbms

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/db"
	"dkbms/internal/rel"
	"dkbms/internal/workload"
)

// The tests here follow the statements an evaluation prepares, which a
// database keeps prepared (db.Prepare): a rule's body constants are
// value parameters, so every program asking the same rules with other
// constants runs the statements the first one prepared.

// answerSet renders a result's rows sorted, one per line.
func answerSet(res *QueryResult) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestBoundQueriesParseOnce pins that the magic-set programs of
// ancestor(t5, Y) and ancestor(t7, Y), which differ only in the
// constant, run one set of statements: the first query parses them, the
// second parses none.
func TestBoundQueriesParseOnce(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(5)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	for _, tc := range []struct {
		query  string
		parses bool
		want   []int
	}{
		{"?- ancestor(t5, Y).", true, []int{10, 11, 20, 21, 22, 23}},
		{"?- ancestor(t7, Y).", false, []int{14, 15, 28, 29, 30, 31}},
	} {
		before := tb.DB().StatsSnapshot().Parses
		res, err := tb.Query(tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		parses := tb.DB().StatsSnapshot().Parses - before
		var want []string
		for _, n := range tc.want {
			want = append(want, rel.Tuple{rel.NewString(workload.TreeNode(n))}.String())
		}
		sort.Strings(want)
		if got := answerSet(res); got != strings.Join(want, "\n") {
			t.Errorf("%s answered\n%s\nwant\n%s", tc.query, got, strings.Join(want, "\n"))
		}
		if tc.parses && parses == 0 || !tc.parses && parses != 0 {
			t.Errorf("%s parsed %d statements; want some the first time, none after", tc.query, parses)
		}
	}
}

// TestStmtCacheBounded compiles more distinct rule shapes than a
// database keeps prepared: s_k(X) :- w(X, A1, …, A6) with each Ai a
// variable of its own, X again, or the constant 1 — distinct WHERE
// clauses — one query each. The cache never holds more than
// db.MaxCachedStmts statements, and every answer, the first shape's
// asked again after its statement was evicted among them, is the one a
// scan of w gives.
func TestStmtCacheBounded(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	const cols = 7
	rng := rand.New(rand.NewSource(1))
	facts := make([]rel.Tuple, 60)
	for i := range facts {
		facts[i] = make(rel.Tuple, cols)
		for c := range facts[i] {
			facts[i][c] = rel.NewInt(int64(rng.Intn(3)))
		}
	}
	if err := tb.AssertTuples("w", facts); err != nil {
		t.Fatal(err)
	}
	shapes := db.MaxCachedStmts + 44
	// shape k's argument i (1..6) is its base-3 digit i: 0 a fresh
	// variable, 1 X, 2 the constant 1.
	digit := func(k, i int) int {
		for ; i > 1; i-- {
			k /= 3
		}
		return k % 3
	}
	var rules strings.Builder
	for k := 0; k < shapes; k++ {
		fmt.Fprintf(&rules, "s%d(X) :- w(X", k)
		for i := 1; i < cols; i++ {
			switch digit(k, i) {
			case 0:
				fmt.Fprintf(&rules, ", A%d", i)
			case 1:
				rules.WriteString(", X")
			case 2:
				rules.WriteString(", 1")
			}
		}
		rules.WriteString(").\n")
	}
	tb.MustLoad(rules.String())
	want := func(k int) string {
		set := make(map[string]bool)
	rows:
		for _, f := range facts {
			for i := 1; i < cols; i++ {
				switch digit(k, i) {
				case 1:
					if f[i] != f[0] {
						continue rows
					}
				case 2:
					if f[i].Int != 1 {
						continue rows
					}
				}
			}
			set[rel.Tuple{f[0]}.String()] = true
		}
		var out []string
		for s := range set {
			out = append(out, s)
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	ask := func(k int) {
		t.Helper()
		res, err := tb.Query(fmt.Sprintf("?- s%d(X).", k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := answerSet(res); got != want(k) {
			t.Fatalf("s%d answered\n%s\nwant\n%s", k, got, want(k))
		}
		if n := tb.DB().CachedStatements(); n > db.MaxCachedStmts {
			t.Fatalf("after s%d the database keeps %d statements prepared, more than %d", k, n, db.MaxCachedStmts)
		}
	}
	for k := 0; k < shapes; k++ {
		ask(k)
	}
	before := tb.DB().StatsSnapshot().Parses
	ask(0)
	if tb.DB().StatsSnapshot().Parses == before {
		t.Errorf("s0 asked again after %d other shapes parsed nothing: the cache kept more than %d statements", shapes-1, db.MaxCachedStmts)
	}
}

// TestCachedStmtPinsNoSnapshot: a read prepares its statements through
// a view bound to its pinned snapshot, and the database keeps them; a
// commit then copies the table the read scanned and retires its old
// version, which is reclaimed once the read has released its snapshot.
// The cached statements must not be what keeps the old version alive:
// afterwards it is garbage, and the live versions are as many as before
// the commit.
func TestCachedStmtPinsNoSnapshot(t *testing.T) {
	c := familyTestbed(t)
	old := c.tb.db.Catalog().Table(BaseTableName("parent"))
	var freed atomic.Bool
	runtime.SetFinalizer(old, func(*catalog.Table) { freed.Store(true) })
	old = nil
	queryCache(t, c, familyQuery, "miss", familyAnswer)
	if c.tb.db.CachedStatements() == 0 {
		t.Fatal("the read left no statement prepared")
	}
	before := c.SnapshotStats()
	if err := c.Load("parent(lea, zoe)."); err != nil {
		t.Fatal(err)
	}
	queryCache(t, c, familyQuery, "plan", familyAnswer+";zoe")
	after := c.SnapshotStats()
	if after.ReclaimBacklog != 0 || after.LiveVersions != before.LiveVersions || after.ReclaimedTables <= before.ReclaimedTables {
		t.Errorf("after the commit: %d live versions (%d before), %d awaiting reclamation, %d reclaimed (%d before)",
			after.LiveVersions, before.LiveVersions, after.ReclaimBacklog, after.ReclaimedTables, before.ReclaimedTables)
	}
	for i := 0; i < 10 && !freed.Load(); i++ {
		runtime.GC()
	}
	if !freed.Load() {
		t.Error("the reclaimed version of the table the read scanned is still reachable")
	}
}

// TestSharedPlanConcurrentPrograms runs the magic-set programs of
// ancestor(c, Y) for 56 constants c from 8 goroutines on a
// ConcurrentTestbed (run under -race): distinct programs, each
// evaluated on its own pinned snapshot, all executing the statements
// one warm-up query prepared — each run through handles and trees of
// its own — so none parses a statement, and every answer is the
// subtree under c.
func TestSharedPlanConcurrentPrograms(t *testing.T) {
	const depth = 6
	tb := NewMemory()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(depth)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	c := NewConcurrent(tb)
	defer c.Close()
	below := func(n int) int {
		count := 0
		for lo, hi := 2*n, 2*n+1; lo <= workload.TreeNodes(depth); lo, hi = 2*lo, 2*hi+1 {
			count += hi - lo + 1
		}
		return count
	}
	ask := func(n int) error {
		res, err := c.Query("?- ancestor("+workload.TreeNode(n)+", Y).", nil)
		if err != nil {
			return err
		}
		if len(res.Rows) != below(n) {
			return fmt.Errorf("ancestor(%s, Y): %d answers, want %d", workload.TreeNode(n), len(res.Rows), below(n))
		}
		return nil
	}
	if err := ask(1); err != nil {
		t.Fatal(err)
	}
	before := tb.DB().StatsSnapshot().Parses
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for n := 2 + g; n < 58; n += 8 {
				if err := ask(n); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if parses := tb.DB().StatsSnapshot().Parses - before; parses != 0 {
		t.Errorf("56 programs after the first parsed %d statements, want 0", parses)
	}
}
