package dkbms

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dkbms/internal/catalog"
)

// closureRules is the ancestor program the file tests query.
const closureRules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// fileCensus opens the database file at path, counts its pages by
// owner and closes it again.
func fileCensus(t *testing.T, path string) catalog.Census {
	t.Helper()
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cs, err := tb.DB().Catalog().Census()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// chainSrc returns the facts parent(<prefix>0, <prefix>1), …, a chain
// of n edges.
func chainSrc(prefix string, from, n int) string {
	var b strings.Builder
	for i := from; i < from+n; i++ {
		fmt.Fprintf(&b, "parent(%s%d, %s%d).\n", prefix, i, prefix, i+1)
	}
	return b.String()
}

// TestFileHoldsOnlyStoredPages runs four sessions on one file. Each
// loads facts, poses bound recursive queries, commits to the relation
// they read twice — each commit dropping the memos, so the queries
// re-evaluate in temp tables — and closes. The temp tables live in
// memory, so after every reopen the superblock, the catalog, the stored
// tables and the free list account for every page of the file, and the
// file does not grow with the number of sessions.
func TestFileHoldsOnlyStoredPages(t *testing.T) {
	const sessions, edges, queries = 4, 30, 4
	path := filepath.Join(t.TempDir(), "dkb.db")
	var pages []int
	for s := 0; s < sessions; s++ {
		tb, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConcurrent(tb)
		prefix := fmt.Sprintf("s%d_", s)
		if err := c.Load(closureRules + chainSrc(prefix, 0, edges)); err != nil {
			t.Fatal(err)
		}
		query := func(k, last int, cache string) {
			t.Helper()
			res, err := c.Query(fmt.Sprintf("?- ancestor(%s%d, Y).", prefix, k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != last-k {
				t.Fatalf("session %d: ancestor(%s%d, Y) has %d answers, want %d", s, prefix, k, len(res.Rows), last-k)
			}
			if cache != "" && res.Cache != cache {
				t.Errorf("session %d: ancestor(%s%d, Y): cache=%q, want %q", s, prefix, k, res.Cache, cache)
			}
		}
		for k := 0; k < queries; k++ {
			query(k, edges, "miss")
		}
		for i := 0; i < 2; i++ {
			if err := c.Load(chainSrc(prefix, edges+i, 1)); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < queries; k++ {
				query(k, edges+i+1, "plan")
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		cs := fileCensus(t, path)
		t.Logf("after session %d: %+v", s, cs)
		if cs.Unreached != 0 {
			t.Errorf("after session %d the file holds %d pages that nothing reaches: %+v", s, cs.Unreached, cs)
		}
		pages = append(pages, cs.Pages)
	}
	// The first session creates the relations; later ones only add a
	// chain each to one of them, well inside the pages it already has.
	for s := 2; s < sessions; s++ {
		if pages[s] > pages[1] {
			t.Errorf("the file grows with the sessions: %v pages after each", pages)
			break
		}
	}
}

// churnFileFactor bounds a churned file's pages by the pages its
// catalog and stored tables own. Measured on go1.24 linux/amd64 after
// the loop below: 11 pages owned, 12 in the file (1.1×) with temp
// tables in memory; 56 in the file (5.1×, 9 of them unreached) when
// the file held them.
const churnFileFactor = 2

// TestChurnFileSizeBounded drives a file-backed ConcurrentTestbed the
// way serve_churn does: families of facts loaded under the leaves of a
// small tree and retracted again, a fact now and then into a relation
// no query reads, and bound closure reads in between, which re-evaluate
// after each commit that moves their inputs. After about 1 000 commits
// the catalog holds no temp table — a read keeps no accumulator — and
// after a clean close, the reopened file holds at most churnFileFactor
// times the pages its catalog and stored tables own, and nothing it
// cannot reach.
func TestChurnFileSizeBounded(t *testing.T) {
	const commits, depth = 1000, 4
	path := filepath.Join(t.TempDir(), "churn.db")
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tb)
	defer c.Close()
	var src strings.Builder
	src.WriteString(closureRules + "audit(setup, 0).\n")
	for i := 2; i < 1<<depth; i++ {
		fmt.Fprintf(&src, "parent(r%d, r%d).\n", i/2, i)
	}
	if err := c.Load(src.String()); err != nil {
		t.Fatal(err)
	}
	// family[leaf] is the size of the family hung on a leaf, 0 if none.
	family := map[int]int{}
	sizes := []int{19, 24, 5, 22, 17}
	// below is the number of answers of ancestor(r<n>, Y).
	var below func(n int) int
	below = func(n int) int {
		if n >= 1<<(depth-1) {
			return family[n]
		}
		return 2 + below(2*n) + below(2*n+1)
	}
	read := func(n int) {
		t.Helper()
		res, err := c.Query(fmt.Sprintf("?- ancestor(r%d, Y).", n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := below(n); len(res.Rows) != want {
			t.Fatalf("ancestor(r%d, Y) has %d answers, want %d", n, len(res.Rows), want)
		}
	}
	fresh, loads := 0, 0
	for i := 0; i < commits; i++ {
		leaf := 1<<(depth-1) + i/2%(1<<(depth-1))
		switch {
		case i%12 == 11:
			if err := c.Load(fmt.Sprintf("audit(a, %d).", i)); err != nil {
				t.Fatal(err)
			}
		case family[leaf] == 0:
			k := sizes[loads%len(sizes)]
			loads++
			var facts strings.Builder
			for range k {
				fresh++
				fmt.Fprintf(&facts, "parent(r%d, n%d).\n", leaf, fresh)
			}
			if err := c.Load(facts.String()); err != nil {
				t.Fatal(err)
			}
			family[leaf] = k
		default:
			n, err := c.RetractSrc(fmt.Sprintf("parent(r%d, X)", leaf))
			if err != nil {
				t.Fatal(err)
			}
			if n != family[leaf] {
				t.Fatalf("retracting r%d's family removed %d facts, want %d", leaf, n, family[leaf])
			}
			family[leaf] = 0
		}
		for _, n := range []int{2 + i%2, 4 + i%4, 1} {
			read(n)
		}
	}
	if names := tempTables(c); len(names) != 0 {
		t.Errorf("after %d commits the catalog holds temp tables %v", commits, names)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	cs := fileCensus(t, path)
	t.Logf("after %d commits: %+v", commits, cs)
	if cs.Unreached != 0 {
		t.Errorf("the file holds %d pages that nothing reaches: %+v", cs.Unreached, cs)
	}
	if cs.Pages > churnFileFactor*cs.Owned() {
		t.Errorf("the file has %d pages, more than %d× the %d its catalog and tables own: %+v", cs.Pages, churnFileFactor, cs.Owned(), cs)
	}
}

// TestTempRegionGauges: a recursive query's temp tables take pages of
// the temp region, which pool.temp_pages reports; when no temp table
// lives, every one of them is on the temp free list
// (pool.temp_free_pages), also after a commit and the re-evaluation it
// causes.
func TestTempRegionGauges(t *testing.T) {
	tb := NewMemory()
	c := NewConcurrent(tb)
	defer c.Close()
	if err := c.Load(closureRules + chainSrc("n", 0, 20)); err != nil {
		t.Fatal(err)
	}
	gauges := func() (pages, free int64) {
		for _, m := range c.EngineMetrics() {
			switch m.Name {
			case "pool.temp_pages":
				pages = m.Value
			case "pool.temp_free_pages":
				free = m.Value
			}
		}
		return pages, free
	}
	query := func() {
		t.Helper()
		if _, err := c.Query("?- ancestor(n3, Y).", nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := gauges()
	query()
	pages, free := gauges()
	if pages <= before {
		t.Fatalf("a recursive query left pool.temp_pages at %d (was %d)", pages, before)
	}
	if free != pages {
		t.Errorf("no temp table lives, yet pool.temp_free_pages is %d of %d", free, pages)
	}

	// A commit to the chain drops the memo; the re-evaluation frees its
	// temp pages as the first evaluation did.
	if err := c.Load(chainSrc("n", 20, 1)); err != nil {
		t.Fatal(err)
	}
	query()
	if pages, free = gauges(); free != pages {
		t.Errorf("after a re-evaluation, pool.temp_free_pages is %d of %d", free, pages)
	}
}
