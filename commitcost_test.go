package dkbms

import (
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/storage"
)

// servedRelation returns a served testbed whose relation p holds the n
// facts p(k0, v0), …, p(k<n-1>, v<n-1>), loaded before the testbed is
// served, with an index on p's first column when indexed.
func servedRelation(t *testing.T, n int, indexed bool) *ConcurrentTestbed {
	t.Helper()
	tb := NewMemory()
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "p(k%d, v%d).\n", i, i)
	}
	if err := tb.Load(src.String()); err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := tb.CreateFactIndex("p", 0); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConcurrent(tb)
	t.Cleanup(func() { c.Close() })
	return c
}

// commitCost is what the commits of one write wrote, as the snapshot
// telemetry counts it.
type commitCost struct{ pages, nodes int64 }

func costOf(t *testing.T, c *ConcurrentTestbed, write func(c *ConcurrentTestbed) error) commitCost {
	t.Helper()
	before := c.SnapshotStats()
	if err := write(c); err != nil {
		t.Fatal(err)
	}
	after := c.SnapshotStats()
	return commitCost{after.PagesWritten - before.PagesWritten, after.NodesWritten - before.NodesWritten}
}

// pIndexHeight returns the height of p's index in the live catalog.
func pIndexHeight(c *ConcurrentTestbed) int {
	return c.tb.db.Catalog().Table(BaseTableName("p")).Indexes[0].Tree.Height()
}

// TestCommitCostIndependentOfRelationSize pins the paper's Fig 15 claim
// for the served write path: a one-fact LOAD, a one-row RETRACT and a
// rule Update write the same heap pages and index nodes into a relation
// of 1 000 facts as into one of 100 000 — the LOAD and the RETRACT one
// page each, and the Update only nodes of the rule-storage relations.
// With p indexed, the RETRACT copies one root-to-leaf path of the index,
// its height, and the LOAD that path and what a split adds.
func TestCommitCostIndependentOfRelationSize(t *testing.T) {
	writes := []struct {
		name  string
		write func(c *ConcurrentTestbed) error
	}{
		{"one-fact LOAD", func(c *ConcurrentTestbed) error { return c.Load("p(k_new, v_new).") }},
		{"one-row RETRACT", func(c *ConcurrentTestbed) error {
			n, err := c.RetractSrc("p(k17, v17)")
			if err == nil && n != 1 {
				err = fmt.Errorf("retract removed %d facts, want 1", n)
			}
			return err
		}},
		{"Update", func(c *ConcurrentTestbed) error {
			if err := c.Load("q(X, Y) :- p(X, Y)."); err != nil {
				return err
			}
			_, err := c.Update()
			return err
		}},
	}
	sizes := []int{1000, 100000}
	if testing.Short() {
		sizes[1] = 20000
	}
	costs := make([][]commitCost, len(sizes))
	for i, n := range sizes {
		c := servedRelation(t, n, false)
		for _, w := range writes {
			costs[i] = append(costs[i], costOf(t, c, w.write))
		}
	}
	for j, w := range writes {
		small, large := costs[0][j], costs[1][j]
		t.Logf("%s: %+v at %d facts, %+v at %d", w.name, small, sizes[0], large, sizes[1])
		if small != large {
			t.Errorf("%s wrote %d pages and %d nodes at %d facts, %d and %d at %d", w.name, small.pages, small.nodes, sizes[0], large.pages, large.nodes, sizes[1])
		}
	}
	if load, retract, update := costs[0][0], costs[0][1], costs[0][2]; load != (commitCost{1, 0}) || retract != (commitCost{1, 0}) || update.nodes == 0 {
		t.Errorf("LOAD wrote %+v and RETRACT %+v, want one page each; Update %+v, want index nodes", load, retract, update)
	}

	for _, n := range sizes {
		c := servedRelation(t, n, true)
		h := int64(pIndexHeight(c))
		load, retract := costOf(t, c, writes[0].write), costOf(t, c, writes[1].write)
		t.Logf("indexed, %d facts, height %d: LOAD %+v, RETRACT %+v", n, h, load, retract)
		if retract != (commitCost{1, h}) || load.pages != 1 || load.nodes < h || load.nodes > 2*h+1 {
			t.Errorf("indexed, %d facts: LOAD wrote %+v and RETRACT %+v; want one page each, the RETRACT the index's height %d in nodes and the LOAD at most a split path more",
				n, load, retract, h)
		}
	}
}

// TestTruncateCopiesNothing: a RETRACT whose arguments are all
// variables empties the relation. On a published version of 50 000
// indexed facts it writes no page and no index node, and a snapshot
// pinned before it still reads every fact.
func TestTruncateCopiesNothing(t *testing.T) {
	const n = 50000
	c := servedRelation(t, n, true)
	s, err := c.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	before := c.SnapshotStats()
	cost := costOf(t, c, func(c *ConcurrentTestbed) error {
		removed, err := c.RetractSrc("p(X, Y)")
		if err == nil && removed != n {
			err = fmt.Errorf("retract removed %d facts, want %d", removed, n)
		}
		return err
	})
	if after := c.SnapshotStats(); cost != (commitCost{}) || after.CopiedTables-before.CopiedTables != 1 {
		t.Errorf("truncating %d facts wrote %+v and replaced %d tables; want nothing written, one table replaced", n, cost, after.CopiedTables-before.CopiedTables)
	}
	pinned := s.Table(BaseTableName("p"))
	count := 0
	if err := pinned.Heap.Scan(func(storage.RID, []byte) error { count++; return nil }); err != nil || count != n || pinned.Rows() != n {
		t.Fatalf("the pinned snapshot reads %d facts (%d maintained), %v; want %d", count, pinned.Rows(), err, n)
	}
	if got := pinned.Indexes[0].Tree.CountPrefix(nil); got != n {
		t.Fatalf("the pinned snapshot's index holds %d postings, want %d", got, n)
	}
	if live := c.tb.db.Catalog().Table(BaseTableName("p")); live.Rows() != 0 || live.Heap.Len() != 0 {
		t.Fatalf("the live relation holds %d rows on %d pages after the truncate", live.Rows(), live.Heap.Len())
	}
}
