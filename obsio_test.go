package dkbms

import (
	"testing"

	"dkbms/internal/storage"
	"dkbms/internal/workload"
)

// TestAncestorHeapIOPinned pins the physical I/O of the EXPERIMENTS.md
// Test 6 query (ancestor over a 1022-edge full binary tree) through the
// per-table heap counters: the semi-naive evaluation under generalized
// magic sets, forced as in the paper's experiments (queryMagic), must
// perform exactly one full scan of the base table per LFP iteration and
// touch it no other way. A change in these constants means the engine's
// physical access pattern changed — intentionally or not — and the
// experiment write-ups need re-measuring.
func TestAncestorHeapIOPinned(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	edges := workload.FullBinaryTree(10)
	if len(edges) != 1022 {
		t.Fatalf("workload changed: %d edges, want 1022", len(edges))
	}
	if err := tb.AssertTuples("e", edges); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- e(X, Y).
ancestor(X, Y) :- e(X, Z), ancestor(Z, Y).
`)
	tbl := tb.DB().Catalog().Table("edb_e")
	if tbl == nil {
		t.Fatalf("no edb_e table; have %v", tb.DB().Catalog().Tables())
	}

	base := tbl.Heap.Stats()
	res := queryMagic(t, tb, "?- ancestor(t1, W).", &QueryOptions{})
	if len(res.Rows) != 1022 {
		t.Fatalf("rows = %d, want 1022 (every tree node below the root)", len(res.Rows))
	}
	iters := res.Iterations()
	if iters != 20 {
		t.Fatalf("iterations = %d, want 20 (magic + ancestor cliques over a depth-10 tree)", iters)
	}

	d := tbl.Heap.Stats().Sub(base)
	pages := d.PagesScanned / d.Scans
	want := storage.HeapStats{
		Scans:        iters,               // one full base-table scan per LFP iteration
		PagesScanned: iters * pages,       // every scan walks the whole heap
		RecsScanned:  iters * int64(1022), // ... and sees every edge
	}
	if d != want {
		t.Fatalf("heap I/O delta = %+v, want %+v", d, want)
	}
	// The query must not have read, written or deleted individual
	// records on the base table (no index path, no mutations).
	if d.Reads != 0 || d.Inserts != 0 || d.Deletes != 0 {
		t.Fatalf("unexpected point I/O on edb_e: %+v", d)
	}
}
