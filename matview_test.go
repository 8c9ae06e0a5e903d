package dkbms

import (
	"sync"
	"testing"
)

// coldKey re-derives the query from scratch (a traced query bypasses
// the memo) and canonicalizes the answer. Used as ground truth against
// maintained results.
func coldKey(t *testing.T, c *ConcurrentTestbed, q string) string {
	t.Helper()
	res, err := c.Query(q, &QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return rowsKey(res)
}

// dropViews commits a rule. A rule commit outdates every compiled
// program, so it drops every cached plan, memo and view, and tears the
// views' tables down.
func dropViews(t *testing.T, c *ConcurrentTestbed) {
	t.Helper()
	if err := c.Load("child(X, Y) :- parent(Y, X)."); err != nil {
		t.Fatal(err)
	}
}

// adoptView makes q's memo keep a maintained view, so that the next
// commit moving its inputs is maintained rather than re-evaluated. A
// memo keeps its evaluation's derived relations only once a commit has
// moved its inputs while it was cached, so adoptView loads fact — a
// fresh fact of a base predicate q reads — retracts it again, and
// re-queries: each re-query must re-evaluate ("plan") and return the
// answer q had before. opts lists the option sets q is cached under
// (none means the defaults).
func adoptView(t *testing.T, c *ConcurrentTestbed, q, fact string, opts ...*QueryOptions) {
	t.Helper()
	if len(opts) == 0 {
		opts = []*QueryOptions{nil}
	}
	want := make([]string, len(opts))
	for i, o := range opts {
		res, err := c.Query(q, o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rowsKey(res)
	}
	if err := c.Load(fact + "."); err != nil {
		t.Fatal(err)
	}
	if n, err := c.RetractSrc(fact); err != nil || n != 1 {
		t.Fatalf("retract %s: %d, %v", fact, n, err)
	}
	for i, o := range opts {
		res, err := c.Query(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "plan" {
			t.Fatalf("adopting a view for %s: cache=%q, want \"plan\"", q, res.Cache)
		}
		if got := rowsKey(res); got != want[i] {
			t.Fatalf("adopting a view for %s changed the answer:\n got %s\nwant %s", q, got, want[i])
		}
	}
}

// TestMatViewInsertPropagation: a fact commit below the Auto crossover
// is folded into the memoized answer by semi-naive delta propagation;
// the next repeat serves it as "maintained" and the rows are exactly
// what a cold re-derivation produces.
func TestMatViewInsertPropagation(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("cold query: %d rows, want 15", len(res.Rows))
	}
	adoptView(t, c, q, "parent(zz1, zz2)")
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "maintained" {
		t.Fatalf("insert commit: cache=%q, want \"maintained\"", res.Cache)
	}
	got := rowsKey(res)
	if len(res.Rows) != 16 {
		t.Fatalf("maintained answer has %d rows, want 16", len(res.Rows))
	}
	st := c.MatViewStats()
	if st.Maintained == 0 || st.Live != 1 {
		t.Fatalf("maintenance did not run: %+v", st)
	}
	if st.DeltaTuples == 0 {
		t.Fatalf("maintenance propagated no delta tuples: %+v", st)
	}
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("maintained answer diverged from cold re-derivation:\n got %s\nwant %s", got, want)
	}
}

// TestMatViewDeletePropagation: a retract runs Delete-and-Rederive on
// the view. The chain's last edge removal must delete exactly the
// tuples that lose all derivations, matching a cold re-derivation.
func TestMatViewDeletePropagation(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	adoptView(t, c, q, "parent(zz1, zz2)")
	if n, err := c.RetractSrc("parent(c14, c15)"); err != nil || n != 1 {
		t.Fatalf("retract: %d, %v", n, err)
	}
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "maintained" {
		t.Fatalf("delete commit: cache=%q, want \"maintained\"", res.Cache)
	}
	got := rowsKey(res)
	if len(res.Rows) != 14 {
		t.Fatalf("maintained answer has %d rows, want 14", len(res.Rows))
	}
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("DRed answer diverged from cold re-derivation:\n got %s\nwant %s", got, want)
	}
}

// TestMatViewMixedCommit: a single LOAD both extending one branch and
// (separately) a retract, interleaved, keeps the maintained answer
// exact through inserts and deletes against the same view.
func TestMatViewMixedCommit(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	adoptView(t, c, q, "parent(zz1, zz2)")
	steps := []struct {
		apply func() error
		rows  int
	}{
		{func() error { return c.Load("parent(c15, c16).") }, 16},
		{func() error { _, err := c.RetractSrc("parent(c15, c16)"); return err }, 15},
		{func() error { return c.Load("parent(c3, x0). parent(x0, x1).") }, 17},
		{func() error { _, err := c.RetractSrc("parent(c3, x0)"); return err }, 15},
	}
	for i, s := range steps {
		if err := s.apply(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		res, err := c.Query(q, nil)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Cache != "maintained" {
			t.Fatalf("step %d: cache=%q, want \"maintained\"", i, res.Cache)
		}
		if len(res.Rows) != s.rows {
			t.Fatalf("step %d: %d rows, want %d", i, len(res.Rows), s.rows)
		}
	}
	// Ground truth for the final state.
	res, _ := c.Query(q, nil)
	got := rowsKey(res)
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("final maintained state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestMatViewAutoFallback pins the cost crossover (delta > rows/4,
// floor 16) on the 15-row chain: a 16-fact commit is maintained, a
// 17-fact commit drops the memo and re-derives instead of propagating
// the delta. Either way the answer is the cold re-derivation's.
func TestMatViewAutoFallback(t *testing.T) {
	const q = "?- ancestor(c0, X)."
	for _, tc := range []struct {
		facts                 int
		cache                 string
		maintained, rederives int64
	}{{16, "maintained", 1, 0}, {17, "plan", 0, 1}} {
		c := snapshotChain(t)
		if _, err := c.Query(q, nil); err != nil {
			t.Fatal(err)
		}
		adoptView(t, c, q, "parent(zz1, zz2)")
		if err := c.Load(fanOut("c1", tc.facts)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != tc.cache {
			t.Fatalf("%d-fact commit: cache=%q, want %q", tc.facts, res.Cache, tc.cache)
		}
		if len(res.Rows) != 15+tc.facts {
			t.Fatalf("%d-fact commit: %d rows, want %d", tc.facts, len(res.Rows), 15+tc.facts)
		}
		if st := c.MatViewStats(); st.Maintained != tc.maintained || st.Rederives != tc.rederives {
			t.Fatalf("%d-fact commit counted as %+v", tc.facts, st)
		}
		if got, want := rowsKey(res), coldKey(t, c, q); got != want {
			t.Fatalf("%d-fact commit diverged from cold re-derivation:\n got %s\nwant %s", tc.facts, got, want)
		}
	}
}

// TestMatViewViewsAccessor: Views() reports the live maintained views
// with their size and maintenance counters.
func TestMatViewViewsAccessor(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	adoptView(t, c, q, "parent(zz1, zz2)")
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	views := c.Views()
	if len(views) != 1 {
		t.Fatalf("%d views, want 1", len(views))
	}
	v := views[0]
	if v.Query != q {
		t.Fatalf("view query %q, want %q", v.Query, q)
	}
	if v.Rows != 16 || v.Maintains != 1 {
		t.Fatalf("view state %+v, want 16 rows / 1 maintain", v)
	}
	if v.LastDeltaTuples == 0 {
		t.Fatalf("view recorded no delta: %+v", v)
	}
	// A rule commit drops every view.
	dropViews(t, c)
	if views := c.Views(); len(views) != 0 {
		t.Fatalf("a rule commit left %d views live", len(views))
	}
	if st := c.MatViewStats(); st.Live != 0 {
		t.Fatalf("Live gauge after a rule commit: %+v", st)
	}
}

// TestMatViewDepsReuse: re-storing a result for an unchanged compiled
// program must reuse the entry's dependency list instead of recomputing
// it per store (the old code re-derived depTables on every overwrite).
func TestMatViewDepsReuse(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	grab := func() (*planEntry, *string) {
		c.plans.mu.Lock()
		defer c.plans.mu.Unlock()
		if len(c.plans.entries) != 1 {
			t.Fatalf("%d cache entries, want 1", len(c.plans.entries))
		}
		for _, e := range c.plans.entries {
			if len(e.deps) == 0 {
				t.Fatal("entry has no dependency tables")
			}
			return e, &e.deps[0]
		}
		return nil, nil
	}
	e1, deps1 := grab()
	// Drop the memo (a fact commit past the crossover), keep plan + deps.
	if err := c.Load(fanOut("c1", 17)); err != nil {
		t.Fatal(err)
	}
	// Re-evaluation stores a fresh result against the same compiled
	// program: deps must be the very same backing array.
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	e2, deps2 := grab()
	if e1 != e2 {
		t.Fatal("entry identity changed across a plan-hit store")
	}
	if deps1 != deps2 {
		t.Fatal("store recomputed depTables for an unchanged compiled program")
	}
}

// TestMatViewMaintenanceStorm: readers hammer a maintained view while a
// writer toggles the chain's last edge. Every answer must be exactly
// the pre- or post-toggle closure — a maintained memo serving a torn or
// drifted row set is a correctness bug, not a staleness bug. Run under
// -race this also exercises the maintain/lookup/store interleavings.
func TestMatViewMaintenanceStorm(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."

	resA, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	closureA := rowsKey(resA) // c1..c15
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	resB, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	closureB := rowsKey(resB) // plus c16
	if closureA == closureB {
		t.Fatal("toggle states are not distinguishable")
	}
	if _, err := c.RetractSrc("parent(c15, c16)"); err != nil {
		t.Fatal(err)
	}

	readers := 8
	perReader := 40
	toggles := 80
	if testing.Short() {
		perReader, toggles = 10, 20
	}

	var wg sync.WaitGroup
	var maintained int64
	var mu sync.Mutex
	for r := 0; r < readers; r++ {
		wg.Add(1)
		//dkblint:bounded one goroutine per test reader
		go func() {
			defer wg.Done()
			seen := int64(0)
			for i := 0; i < perReader; i++ {
				res, err := c.Query(q, nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Cache == "maintained" {
					seen++
				}
				if key := rowsKey(res); key != closureA && key != closureB {
					t.Errorf("maintained answer drifted at snapshot %d: %d rows",
						res.Snapshot, len(res.Rows))
					return
				}
			}
			mu.Lock()
			maintained += seen
			mu.Unlock()
		}()
	}
	wg.Add(1)
	//dkblint:bounded single writer goroutine
	go func() {
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			if err := c.Load("parent(c15, c16)."); err != nil {
				t.Errorf("writer load: %v", err)
				return
			}
			if n, err := c.RetractSrc("parent(c15, c16)"); err != nil || n != 1 {
				t.Errorf("writer retract: %d, %v", n, err)
				return
			}
		}
	}()
	wg.Wait()

	// The storm must actually have exercised maintenance, and the final
	// maintained state must equal a cold re-derivation byte for byte.
	if st := c.MatViewStats(); st.Maintained == 0 {
		t.Fatalf("storm never maintained a view: %+v", st)
	}
	if st := c.MatViewStats(); st.Errors != 0 {
		t.Fatalf("maintenance errors during storm: %+v", st)
	}
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsKey(res)
	if got != closureA {
		t.Fatalf("final state is not the pre-toggle closure: %d rows", len(res.Rows))
	}
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("maintained final state diverged from cold re-derivation:\n got %s\nwant %s", got, want)
	}
	_ = maintained // informational; may be 0 on fast machines where toggles outpace reads
}
