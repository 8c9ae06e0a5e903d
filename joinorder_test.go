package dkbms

import (
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/workload"
)

// tracedForestQuery evaluates the bound magic query ancestor(n, W), n
// the first node four levels from the bottom of tree 1 (14 descendants),
// over a forest indexed on parent's first column, with generalized magic
// sets forced (queryMagic), and returns the evaluation's trace root.
func tracedForestQuery(t *testing.T, trees, depth int) *obs.Span {
	t.Helper()
	tb := NewMemory()
	t.Cleanup(func() { tb.Close() })
	if err := tb.AssertTuples("parent", workload.Forest(trees, depth)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	level := depth - 3 // the root is level 1
	res := queryMagic(t, tb, "?- ancestor("+workload.ForestNode(1, 1<<(level-1))+", W).", &QueryOptions{Trace: true})
	if want := workload.SubtreeEdges(depth, level); len(res.Rows) != want {
		t.Fatalf("%d answers, want %d", len(res.Rows), want)
	}
	return res.Trace.Root()
}

// TestMagicRuleEstimatesTrackRows reads the planner's estimates off the
// operator spans (est= beside rows=, what dkbsh .trace prints): every
// firing of the modified rule m_ancestor(X), parent(X,Z), ancestor(Z,Y)
// over a 24-tree forest joins through the magic set into parent's index
// and hashes the delta last, each scan and join estimated within 10× of
// what it emitted, and no statement of the program scans the base
// relation.
func TestMagicRuleEstimatesTrackRows(t *testing.T) {
	root := tracedForestQuery(t, 24, 9)
	if scans := root.FindAll("scan(edb_parent)"); len(scans) > 0 {
		t.Errorf("%d full scans of the base relation", len(scans))
	}
	modified := 0
	for _, rule := range root.FindAll("rule ancestor__bf") {
		if !hasAttr(rule, "src", "m_ancestor__bf(X), parent(X, Z), ancestor__bf(Z, Y)") {
			continue
		}
		modified++
		if len(rule.FindAll("idxjoin(edb_parent")) != 1 || len(rule.FindAll("hashjoin")) != 1 {
			t.Errorf("modified rule is not hashjoin(idxjoin(magic, parent), delta):\n%s", obs.Adopt(rule).Format())
		}
		estimated := 0
		for _, sp := range rule.FindAll("") {
			est, ok := sp.Int("est")
			if !ok {
				continue
			}
			estimated++
			rows, _ := sp.Int("rows")
			if est > 10*max(rows, 1) || rows > 10*max(est, 1) {
				t.Errorf("%s: est=%d rows=%d", sp.Name, est, rows)
			}
		}
		if estimated < 3 {
			t.Errorf("%d operator spans carry est=, want the scans and both joins:\n%s", estimated, obs.Adopt(rule).Format())
		}
	}
	if modified == 0 {
		t.Fatalf("no modified magic rule in the trace:\n%s", obs.Adopt(root).Format())
	}
}

func hasAttr(sp *obs.Span, key, substr string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key && strings.Contains(a.Str, substr) {
			return true
		}
	}
	return false
}

// TestBoundQueryInsensitiveToBaseSize pins the premise DESIGN.md §2
// takes from the paper — indexed joins are insensitive to base-table
// size: the same bound ancestor query costs the same base-relation I/O,
// record for record and descent for descent, whether the forest around
// its subtree has 2 trees or 24.
func TestBoundQueryInsensitiveToBaseSize(t *testing.T) {
	type io struct{ heapRecs, heapReads, descents int64 }
	baseIO := func(trees int) io {
		var sum io
		for _, sp := range tracedForestQuery(t, trees, 12).FindAll("") {
			if !strings.Contains(sp.Name, "(edb_parent") {
				continue
			}
			v, _ := sp.Int("heap_recs")
			sum.heapRecs += v
			v, _ = sp.Int("heap_reads")
			sum.heapReads += v
			v, _ = sp.Int("descents")
			sum.descents += v
		}
		return sum
	}
	small, big := baseIO(2), baseIO(24)
	if small != big {
		t.Fatalf("base-relation I/O grew with the forest: 2 trees %+v, 24 trees %+v", small, big)
	}
	if small.descents == 0 || small.heapRecs != 0 {
		t.Fatalf("base relation not reached through its index alone: %+v", small)
	}
}

// TestRetractInsensitiveToRelationSize: retracting one fact of a
// relation indexed on its first column reads one record twice — once
// where the retract's plan reads the rows it matches, once where its
// DELETE reaches them — and an absent fact once, never a scan, whether
// the relation holds 1 000 facts or 50 000: both statements reach the
// table through the planner's access path, like the bound query above.
func TestRetractInsensitiveToRelationSize(t *testing.T) {
	type io struct{ heapRecs, heapReads, heapDeletes, descents int64 }
	retractIO := func(facts int) io {
		tb := NewMemory()
		defer tb.Close()
		tuples := make([]rel.Tuple, facts)
		for i := range tuples {
			tuples[i] = rel.Tuple{rel.NewString(fmt.Sprintf("n%d", i)), rel.NewString(fmt.Sprintf("m%d", i%7))}
		}
		if err := tb.AssertTuples("edge", tuples); err != nil {
			t.Fatal(err)
		}
		if err := tb.CreateFactIndex("edge", 0); err != nil {
			t.Fatal(err)
		}
		table := tb.DB().Catalog().Table(BaseTableName("edge"))
		heap, tree := table.Heap.Stats(), table.Indexes[0].Stats()
		if n, err := tb.RetractSrc("edge(n17, m3)"); err != nil || n != 1 {
			t.Fatalf("retract: %d facts, %v", n, err)
		}
		if n, err := tb.RetractSrc("edge(n18, nosuch)"); err != nil || n != 0 {
			t.Fatalf("retract of an absent fact: %d facts, %v", n, err)
		}
		h := table.Heap.Stats().Sub(heap)
		return io{h.RecsScanned, h.Reads, h.Deletes, table.Indexes[0].Stats().Searches - tree.Searches}
	}
	small, big := retractIO(1000), retractIO(50000)
	if small != big {
		t.Fatalf("retract I/O grew with the relation: 1 000 facts %+v, 50 000 facts %+v", small, big)
	}
	if want := (io{heapRecs: 0, heapReads: 3, heapDeletes: 1, descents: small.descents}); small != want || small.descents == 0 {
		t.Fatalf("fact relation not reached through its index alone: %+v", small)
	}
}
