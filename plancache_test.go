package dkbms

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dkbms/internal/snapshot"
)

const planCacheProgram = `
parent(a, b).
parent(b, c).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

func newCachedTestbed(t *testing.T) *ConcurrentTestbed {
	t.Helper()
	c := NewConcurrent(NewMemory())
	t.Cleanup(func() { c.Close() })
	if err := c.Load(planCacheProgram); err != nil {
		t.Fatal(err)
	}
	return c
}

func queryRows(t *testing.T, c *ConcurrentTestbed, src string) int {
	t.Helper()
	res, err := c.Query(src, nil)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return len(res.Rows)
}

// fanOut is a LOAD of n parent facts from one node to fresh nodes
// f0..f(n-1).
func fanOut(from string, n int) string {
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "parent(%s, f%d).\n", from, i)
	}
	return src.String()
}

// TestPlanCacheResultHit: an identical repeated query on an unchanged
// D/KB is answered from the memoized result, and the shared rows are
// safe against caller mutation.
func TestPlanCacheResultHit(t *testing.T) {
	c := newCachedTestbed(t)
	const q = "?- ancestor(a, X)."
	if n := queryRows(t, c, q); n != 2 {
		t.Fatalf("cold query: %d rows, want 2", n)
	}
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := c.PlanStats()
	if st.ResultHits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat: %+v, want 1 result hit / 1 miss", st)
	}
	// A caller truncating its answer must not corrupt the cached copy.
	res.Rows = res.Rows[:0]
	if n := queryRows(t, c, q); n != 2 {
		t.Fatalf("cached result was mutated through a caller: %d rows", n)
	}
	// Different options are a different cache key.
	if _, err := c.Query(q, &QueryOptions{Naive: true}); err != nil {
		t.Fatal(err)
	}
	if st := c.PlanStats(); st.Misses != 2 {
		t.Fatalf("distinct options shared an entry: %+v", st)
	}
}

// TestPlanCacheRetractInvalidates: a RETRACT moves the data generation
// and drops the memo, so the next
// identical query keeps the compiled plan but re-evaluates — and must
// see the shrunken answer, not the memoized one.
func TestPlanCacheRetractInvalidates(t *testing.T) {
	c := newCachedTestbed(t)
	if err := c.Load(fanOut("b", 17)); err != nil {
		t.Fatal(err)
	}
	const q = "?- ancestor(a, X)."
	if n := queryRows(t, c, q); n != 19 {
		t.Fatalf("before retract: %d rows, want 19", n)
	}
	n, err := c.RetractSrc("parent(b, X)")
	if err != nil || n != 18 {
		t.Fatalf("retract: %d, %v", n, err)
	}
	if n := queryRows(t, c, q); n != 1 {
		t.Fatalf("after retract: %d rows, want 1 (stale cached answer served?)", n)
	}
	st := c.PlanStats()
	if st.PlanHits != 1 || st.Misses != 1 {
		t.Fatalf("after retract: %+v, want the plan reused (1 plan hit, 1 miss)", st)
	}
	// A retract that matches nothing leaves the generations alone, so the
	// freshly memoized answer serves the next repeat.
	if n, err := c.RetractSrc("parent(z, z)"); err != nil || n != 0 {
		t.Fatalf("no-op retract: %d, %v", n, err)
	}
	if n := queryRows(t, c, q); n != 1 {
		t.Fatalf("after no-op retract: %d rows, want 1", n)
	}
	if st := c.PlanStats(); st.ResultHits != 1 {
		t.Fatalf("no-op retract evicted the result: %+v", st)
	}
}

// TestPlanCacheLoadInvalidates: a LOAD of facts re-evaluates cached
// plans; a LOAD that changes rules recompiles them.
func TestPlanCacheLoadInvalidates(t *testing.T) {
	c := newCachedTestbed(t)
	const q = "?- ancestor(a, X)."
	if n := queryRows(t, c, q); n != 2 {
		t.Fatalf("cold query: %d rows, want 2", n)
	}

	// Facts only: the plan survives, the memoized answer does not.
	if err := c.Load(fanOut("c", 17)); err != nil {
		t.Fatal(err)
	}
	if n := queryRows(t, c, q); n != 19 {
		t.Fatalf("after fact load: %d rows, want 19", n)
	}
	st := c.PlanStats()
	if st.PlanHits != 1 || st.Misses != 1 {
		t.Fatalf("after fact load: %+v, want 1 plan hit / 1 miss", st)
	}

	// A rule change outdates the compiled program itself.
	if err := c.Load("forebear(X, Y) :- ancestor(X, Y)."); err != nil {
		t.Fatal(err)
	}
	if n := queryRows(t, c, q); n != 19 {
		t.Fatalf("after rule load: %d rows, want 19", n)
	}
	st = c.PlanStats()
	if st.Invalidations == 0 {
		t.Fatalf("rule load did not invalidate: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("after rule load: %+v, want a recompile (2 misses)", st)
	}
}

// TestPlanCacheResultBytes: the cache accounts for its memos exactly.
// ResultBytes is the length of every memo's row block together: it
// rises by the block a store memoizes, stands still on a hit, and falls
// to 0 when a commit to the table the memos read drops them, their
// plans kept.
func TestPlanCacheResultBytes(t *testing.T) {
	c := newCachedTestbed(t)
	block := func(q string) int64 {
		t.Helper()
		res, block, err := c.QueryShared(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "result" || res.Rows != nil {
			t.Fatalf("%s: cache %q with %d rows, want a memo hit carrying only its block", q, res.Cache, len(res.Rows))
		}
		return int64(len(block))
	}
	bytes := func() int64 { return c.PlanStats().ResultBytes }
	if got := bytes(); got != 0 {
		t.Fatalf("an empty cache accounts for %d memo bytes", got)
	}
	queryRows(t, c, "?- ancestor(a, X).")
	first := block("?- ancestor(a, X).")
	if got := bytes(); got != first || first == 0 {
		t.Fatalf("after one store: %d memo bytes, want the memo's %d", got, first)
	}
	queryRows(t, c, "?- ancestor(a, X).")
	if got := bytes(); got != first {
		t.Fatalf("a hit moved the memo bytes: %d, want %d", got, first)
	}
	queryRows(t, c, "?- ancestor(X, Y).")
	second := block("?- ancestor(X, Y).")
	if got := bytes(); got != first+second || second <= first {
		t.Fatalf("after two stores: %d memo bytes, want %d + %d", got, first, second)
	}
	if err := c.Load("parent(c, d)."); err != nil {
		t.Fatal(err)
	}
	if st := c.PlanStats(); st.ResultBytes != 0 || st.Entries != 2 {
		t.Fatalf("after a commit to parent: %d memo bytes over %d entries, want 0 over 2", st.ResultBytes, st.Entries)
	}
}

// TestMemoHitReportsItsEvaluation: a memo hit carries the stats of the
// evaluation it memoized, so its Iterations equal the miss's.
func TestMemoHitReportsItsEvaluation(t *testing.T) {
	c := newCachedTestbed(t)
	const q = "?- ancestor(X, Y)."
	miss, err := c.Query(q, &QueryOptions{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Query(q, &QueryOptions{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache != "miss" || hit.Cache != "result" {
		t.Fatalf("cache outcomes %q then %q, want miss then result", miss.Cache, hit.Cache)
	}
	if miss.Iterations() < 2 || hit.Iterations() != miss.Iterations() {
		t.Fatalf("the miss ran %d LFP iterations and the hit reports %d; want the same, at least 2", miss.Iterations(), hit.Iterations())
	}
}

// TestPlanCacheLRUBound: the cache never exceeds its capacity and evicts
// the least recently used query.
func TestPlanCacheLRUBound(t *testing.T) {
	c := newCachedTestbed(t)
	c.plans.capacity = 2
	queries := []string{"?- ancestor(a, X).", "?- ancestor(b, X).", "?- parent(a, X)."}
	for _, q := range queries {
		queryRows(t, c, q)
	}
	st := c.PlanStats()
	if st.Entries != 2 {
		t.Fatalf("capacity 2 cache holds %d entries", st.Entries)
	}
	// The oldest query was evicted: re-running it is a miss, while the
	// newest is still a result hit.
	queryRows(t, c, queries[0])
	queryRows(t, c, queries[2])
	st = c.PlanStats()
	if st.Misses != 4 || st.ResultHits != 1 {
		t.Fatalf("LRU order wrong: %+v, want 4 misses and 1 result hit", st)
	}
}

// tempTables lists the temp tables in the live catalog. Between
// operations there are none: an evaluation drops every relation it
// creates before it returns, and the plan cache holds records, not tables.
func tempTables(c *ConcurrentTestbed) []string {
	cat := c.tb.db.Catalog()
	var out []string
	for _, name := range cat.Tables() {
		if t := cat.Table(name); t != nil && t.Temp {
			out = append(out, name)
		}
	}
	return out
}

// TestPlanCacheViewPolicy: the plan cache keeps no view. A memo is
// served while its inputs stand still — repeats, a commit to a table the
// program does not read — and a commit that moves a table it read drops
// it, so the next read re-evaluates ("plan") and the one after is a
// result hit again; traced runs and a dropped entry (eviction) change
// nothing of that. Whatever the sequence, no read leaves a temp table
// in the catalog.
func TestPlanCacheViewPolicy(t *testing.T) {
	const q = "?- ancestor(a, X)."
	noTables := func(t *testing.T, c *ConcurrentTestbed, step string) {
		t.Helper()
		if names := tempTables(c); len(names) != 0 {
			t.Fatalf("%s: the catalog holds temp tables %v", step, names)
		}
	}
	// moveInputs caches q, then commits to the table its memo read.
	moveInputs := func(t *testing.T, c *ConcurrentTestbed) {
		t.Helper()
		queryCache(t, c, q, "miss", "b;c")
		if err := c.Load("parent(c, d)."); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("static repeats", func(t *testing.T) {
		c := newCachedTestbed(t)
		queryCache(t, c, q, "miss", "b;c")
		for i := 0; i < 3; i++ {
			queryCache(t, c, q, "result", "b;c")
		}
		noTables(t, c, "repeats")
	})
	t.Run("unrelated commit", func(t *testing.T) {
		c := newCachedTestbed(t)
		// The relation exists before the query: creating one would move
		// the rule generation and recompile.
		if err := c.Load("likes(a, b)."); err != nil {
			t.Fatal(err)
		}
		queryCache(t, c, q, "miss", "b;c")
		if err := c.Load("likes(b, c)."); err != nil {
			t.Fatal(err)
		}
		queryCache(t, c, q, "result", "b;c")
		noTables(t, c, "commit to likes")
	})
	t.Run("traced", func(t *testing.T) {
		c := newCachedTestbed(t)
		moveInputs(t, c)
		for i := 0; i < 2; i++ {
			res, err := c.Query(q, &QueryOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != "plan" || rowsKey(res) != "b;c;d" {
				t.Fatalf("traced run: cache=%q rows=%s, want plan/b;c;d", res.Cache, rowsKey(res))
			}
			noTables(t, c, "traced run")
		}
		// A traced run publishes no answer: the untraced read evaluates.
		queryCache(t, c, q, "plan", "b;c;d")
		queryCache(t, c, q, "result", "b;c;d")
		noTables(t, c, "untraced runs")
	})
	t.Run("eviction", func(t *testing.T) {
		c := newCachedTestbed(t)
		c.plans.capacity = 1
		moveInputs(t, c)
		queryRows(t, c, "?- parent(a, X).")
		queryCache(t, c, q, "miss", "b;c;d")
		queryCache(t, c, q, "result", "b;c;d")
		noTables(t, c, "re-cached after eviction")
	})
}

// TestPlanCacheConcurrent drives queries and invalidating updates from
// many goroutines; with -race it checks the lookup/store/purge paths,
// and every answer must be consistent with some committed D/KB state
// (1, 2 or 3 ancestors while facts churn).
func TestPlanCacheConcurrent(t *testing.T) {
	c := newCachedTestbed(t)
	const q = "?- ancestor(a, X)."
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := c.Query(q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if n := len(res.Rows); n < 1 || n > 3 {
					t.Errorf("impossible answer size %d", n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := c.Load("parent(c, d)."); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.RetractSrc("parent(c, d)"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestPlanCacheStoreKeepsNewest: a reader pinned to an older snapshot
// stores its answer after the entry got a newer memo — one stored at a
// newer snapshot, then one a commit carried forward — and the entry
// keeps the newer memo, so a reader of the current snapshot still hits
// it, with the current answer.
func TestPlanCacheStoreKeepsNewest(t *testing.T) {
	tb := NewMemory()
	tb.MustLoad(planCacheProgram)
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tb)
	defer c.Close()
	const q = "?- ancestor(a, X)."
	key := newPlanKey(q, &QueryOptions{})
	// oldReader reads q on the pinned snapshot s, as a read of s that
	// finishes late does: the memo it finds there is stale, so it
	// evaluates and stores its answer.
	oldReader := func(s *snapshot.Snapshot) {
		t.Helper()
		m, err := c.readAt(context.Background(), s, key, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.res.Cache != "plan" {
			t.Fatalf("the read of generation %d served %q, want an evaluation", s.Gen, m.res.Cache)
		}
	}
	served := func(step, cache string, rows int) {
		t.Helper()
		res, err := c.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != cache || len(res.Rows) != rows {
			t.Fatalf("%s: served %q with %d rows, want %q with %d", step, res.Cache, len(res.Rows), cache, rows)
		}
	}
	served("cold", "miss", 2)
	first := c.snaps.Acquire()
	defer first.Release()
	if err := c.Load("parent(b, d)."); err != nil { // b was probed
		t.Fatal(err)
	}
	second := c.snaps.Acquire()
	defer second.Release()
	served("after a LOAD on a probed key", "plan", 3)
	oldReader(first)
	served("after a store from the snapshot before", "result", 3)

	if err := c.Load("parent(z, y)."); err != nil { // z was not
		t.Fatal(err)
	}
	if got := c.PlanStats().Carried; got != 1 {
		t.Fatalf("carried %d memos, want 1", got)
	}
	oldReader(second)
	served("after a store from the snapshot before the carry", "result", 3)
}
