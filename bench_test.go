// Benchmarks of the end-to-end query path. The paper's tables and
// figures (§5.3) are regenerated by cmd/dkbbench (internal/bench), and
// every one of them runs at test scale in internal/bench's
// TestAllExperimentsRunQuick.
package dkbms_test

import (
	"fmt"
	"testing"

	"dkbms"
	"dkbms/internal/workload"
)

func treeTestbed(b *testing.B, depth int) *dkbms.Testbed {
	b.Helper()
	tb := dkbms.NewMemory()
	b.Cleanup(func() { tb.Close() })
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(depth)); err != nil {
		b.Fatal(err)
	}
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		b.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	return tb
}

func runQuery(b *testing.B, tb *dkbms.Testbed, q string, opts *dkbms.QueryOptions) *dkbms.QueryResult {
	b.Helper()
	res, err := tb.Query(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkQueryEndToEnd is the headline number: compile + evaluate the
// bound ancestor query, everything included.
func BenchmarkQueryEndToEnd(b *testing.B) {
	tb := treeTestbed(b, 8)
	q := fmt.Sprintf("?- ancestor(%s, W).", workload.TreeNode(2))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runQuery(b, tb, q, nil)
	}
}

// BenchmarkQueryTrace pins the observability overhead contract from
// both sides: "off" is the same end-to-end query with the instrumented
// code paths compiled in but tracing disabled (must match
// BenchmarkQueryEndToEnd within noise), "on" shows what full span
// recording costs when requested.
func BenchmarkQueryTrace(b *testing.B) {
	for _, mode := range []struct {
		name  string
		trace bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tb := treeTestbed(b, 8)
			q := fmt.Sprintf("?- ancestor(%s, W).", workload.TreeNode(2))
			opts := &dkbms.QueryOptions{Trace: mode.trace}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runQuery(b, tb, q, opts)
			}
		})
	}
}
