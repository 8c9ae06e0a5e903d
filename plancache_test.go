package dkbms

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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
// f0..f(n-1). Past 16 facts its commit is beyond the maintenance
// crossover (matview.AutoIncremental) for any answer under 68 rows, so
// it drops a stale memo instead of maintaining it.
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

// TestPlanCacheRetractInvalidates: a RETRACT past the maintenance
// crossover moves the data generation and drops the memo, so the next
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

// TestPlanCacheLoadInvalidates: a LOAD of facts past the maintenance
// crossover re-evaluates cached plans; a LOAD that changes rules
// recompiles them.
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
