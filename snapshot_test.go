package dkbms

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// snapshotChain builds the EXPERIMENTS.md Test 6 shape at small scale:
// a parent chain c0..c15 plus the recursive ancestor rules.
func snapshotChain(t *testing.T) *ConcurrentTestbed {
	t.Helper()
	c := NewConcurrent(NewMemory())
	t.Cleanup(func() { c.Close() })
	var src strings.Builder
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&src, "parent(c%d, c%d).\n", i, i+1)
	}
	src.WriteString("ancestor(X, Y) :- parent(X, Y).\n")
	src.WriteString("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n")
	if err := c.Load(src.String()); err != nil {
		t.Fatal(err)
	}
	return c
}

// rowsKey canonicalizes an answer for exact-set comparison.
func rowsKey(res *QueryResult) string {
	keys := make([]string, len(res.Rows))
	for i, tu := range res.Rows {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestSnapshotIsolationUnderUpdateStorm: eight readers evaluate the
// ancestor closure while a writer continuously toggles the chain's
// last edge with LOAD and RETRACT. Under snapshot isolation every
// answer must equal, exactly, the closure before the toggle or the
// closure after it — never a torn in-between state — and the writer's
// versions must all be reclaimed once the storm drains. The readers
// probe index nodes and scan heap pages that the writer's new table
// version shares until it copies them (run under -race).
func TestSnapshotIsolationUnderUpdateStorm(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."

	// The two committed states the storm oscillates between.
	resA, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	closureA := rowsKey(resA) // c1..c15: 15 rows
	if len(resA.Rows) != 15 {
		t.Fatalf("baseline closure has %d rows, want 15", len(resA.Rows))
	}
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	resB, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	closureB := rowsKey(resB) // plus c16: 16 rows
	if len(resB.Rows) != 16 {
		t.Fatalf("extended closure has %d rows, want 16", len(resB.Rows))
	}
	if _, err := c.RetractSrc("parent(c15, c16)"); err != nil {
		t.Fatal(err)
	}

	readers := 8
	perReader := 30
	writes := 60
	if testing.Short() {
		perReader, writes = 10, 20
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
					t.Errorf("torn read at snapshot %d: %d rows, neither pre- nor post-update closure",
						res.Snapshot, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
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

	// The storm over and all readers drained, reclamation must have
	// caught up: one live version per published table, no backlog.
	st := c.SnapshotStats()
	if st.ActiveReaders != 0 {
		t.Fatalf("%d active readers after drain", st.ActiveReaders)
	}
	if st.ReclaimBacklog != 0 || st.RetiredSnapshots != 0 {
		t.Fatalf("reclamation leaked: backlog %d, retired %d", st.ReclaimBacklog, st.RetiredSnapshots)
	}
	if st.ReclaimErrors != 0 {
		t.Fatalf("%d reclaim errors", st.ReclaimErrors)
	}
	if st.Commits == 0 || st.CopiedTables == 0 {
		t.Fatalf("storm committed nothing: %+v", st)
	}
	// Final state is closure A (every toggle pair ends on retract).
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(res) != closureA {
		t.Fatalf("final state diverged: %d rows", len(res.Rows))
	}
}

// TestSnapshotReadersDoNotBlockWriters is the convoy regression test:
// a reader holding a pinned snapshot (simulated by pinning through the
// stats-visible acquire path of a long query) must not stop a writer
// from committing, and the writer must not invalidate the reader's
// answers for untouched tables.
func TestSnapshotReadersDoNotBlockWriters(t *testing.T) {
	c := snapshotChain(t)
	// An unrelated relation created up front: appending to an existing
	// relation later moves only that table's version. (Creating a new
	// relation would bump the rule generation — mixed rules/facts
	// normalization can change compiled programs — and recompile.)
	if err := c.Load("likes(alice, bob)."); err != nil {
		t.Fatal(err)
	}
	const q = "?- ancestor(c0, X)."
	if _, err := c.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	// A write to the unrelated relation must keep the memoized ancestor
	// answer valid (per-table invalidation, not a wholesale nuke).
	if err := c.Load("likes(bob, carol)."); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "result" {
		t.Fatalf("unrelated write evicted the memoized answer (cache=%q)", res.Cache)
	}
	// A write to the read table drops the memoized answer: the next
	// repeat re-evaluates the cached program.
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "plan" {
		t.Fatalf("touched-table write should re-evaluate the memoized answer (cache=%q)", res.Cache)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("re-evaluation missed the new edge: %d rows", len(res.Rows))
	}
}

// TestSnapshotResultStampsGeneration: results report the snapshot
// generation they were computed (or served) against.
func TestSnapshotResultStampsGeneration(t *testing.T) {
	c := snapshotChain(t)
	const q = "?- ancestor(c0, X)."
	res1, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Snapshot == 0 {
		t.Fatal("concurrent query did not stamp a snapshot generation")
	}
	if err := c.Load("parent(c15, c16)."); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Snapshot <= res1.Snapshot {
		t.Fatalf("snapshot generation did not advance across a commit: %d -> %d", res1.Snapshot, res2.Snapshot)
	}
	st := c.SnapshotStats()
	if st.Gen != res2.Snapshot {
		t.Fatalf("stats gen %d, last query ran at %d", st.Gen, res2.Snapshot)
	}
}
