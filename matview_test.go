package dkbms

import (
	"fmt"
	"sync"
	"testing"
)

// coldKey re-derives the query from scratch (a traced query bypasses
// the memo) and canonicalizes the answer. Used as ground truth against
// served results.
func coldKey(t *testing.T, c *ConcurrentTestbed, q string) string {
	t.Helper()
	res, err := c.Query(q, &QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return rowsKey(res)
}

// rederived checks q's reads after a commit that moved its inputs: the
// first re-evaluates ("plan") and returns rows answers, exactly what a
// cold re-derivation produces; a repeat serves the same rows from the
// memo ("result").
func rederived(t *testing.T, c *ConcurrentTestbed, q, step string, rows int) {
	t.Helper()
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if res.Cache != "plan" || len(res.Rows) != rows {
		t.Fatalf("%s: cache=%q rows=%d, want plan/%d", step, res.Cache, len(res.Rows), rows)
	}
	got := rowsKey(res)
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("%s: re-evaluated answer diverged from cold re-derivation:\n got %s\nwant %s", step, got, want)
	}
	res, err = c.Query(q, nil)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if res.Cache != "result" || rowsKey(res) != got {
		t.Fatalf("%s, repeat: cache=%q rows=%s, want result/%s", step, res.Cache, rowsKey(res), got)
	}
}

// TestMatViewInsertPropagation: a fact commit that extends the chain
// drops the memoized answer; the next read re-evaluates the cached
// program and sees the new tuple's consequences.
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
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	rederived(t, c, q, "insert commit", 16)
}

// TestMatViewDeletePropagation: a retract of the chain's last edge drops
// the memoized answer; the re-evaluation loses exactly the tuples that
// lost all derivations.
func TestMatViewDeletePropagation(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := c.RetractSrc("parent(c14, c15)"); err != nil || n != 1 {
		t.Fatalf("retract: %d, %v", n, err)
	}
	rederived(t, c, q, "delete commit", 14)
}

// TestMatViewMixedCommit: loads and retracts interleaved against one
// cached query, each re-evaluated exactly once and memoized again.
func TestMatViewMixedCommit(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
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
		rederived(t, c, q, fmt.Sprintf("step %d", i), s.rows)
	}
}

// TestMatViewAutoFallback: every fact commit that moves a memo's inputs
// falls back to re-evaluation, whatever its size: a 16-fact and a
// 17-fact commit on the 15-row chain both read "plan" next.
func TestMatViewAutoFallback(t *testing.T) {
	const q = "?- ancestor(c0, X)."
	for _, facts := range []int{16, 17} {
		c := snapshotChain(t)
		if _, err := c.Query(q, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(fanOut("c1", facts)); err != nil {
			t.Fatal(err)
		}
		rederived(t, c, q, fmt.Sprintf("%d-fact commit", facts), 15+facts)
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
	// Drop the memo (a fact commit), keep plan + deps.
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

// TestMatViewMaintenanceStorm: readers hammer a memoized answer while a
// writer toggles the chain's last edge, each commit dropping the memo.
// Every answer must be exactly the pre- or post-toggle closure — a memo
// serving a torn or drifted row set is a correctness bug, not a
// staleness bug. Run under -race this also exercises the
// invalidate/lookup/store interleavings.
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
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				res, err := c.Query(q, nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if key := rowsKey(res); key != closureA && key != closureB {
					t.Errorf("answer drifted at snapshot %d: %d rows",
						res.Snapshot, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Add(1)
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

	// The final answer must equal a cold re-derivation byte for byte,
	// and the storm must leave no temp table behind.
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsKey(res)
	if got != closureA {
		t.Fatalf("final state is not the pre-toggle closure: %d rows", len(res.Rows))
	}
	if want := coldKey(t, c, q); got != want {
		t.Fatalf("final state diverged from cold re-derivation:\n got %s\nwant %s", got, want)
	}
	if names := tempTables(c); len(names) != 0 {
		t.Fatalf("the storm left temp tables %v", names)
	}
}
