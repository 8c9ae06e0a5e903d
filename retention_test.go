package dkbms

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dkbms/internal/rel"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Bytes the parent commit (e07ec15: a slice per decoded row, a string
// per value) retained in the two measurements of
// TestResultsDoNotPinBlocks, on go1.24 linux/amd64.
const (
	parentAnswerBytes = 3456
	parentIndexBytes  = 1815792
)

// TestResultsDoNotPinBlocks: rows are decoded a page at a time into
// blocks and cut from operator slabs, so a row that outlives its
// statement could keep a whole page's worth of values and characters
// alive. What outlives a statement owns its bytes instead: the rows
// db.Query returns (one-row answers selected from a 10 000-row relation,
// each from another page) and the keys of a B+tree built over it retain
// what they did when every row was its own allocation, within 5 %.
func TestResultsDoNotPinBlocks(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	const rows = 10000
	facts := make([]rel.Tuple, rows)
	for i := range facts {
		facts[i] = rel.Tuple{rel.NewString(fmt.Sprintf("n%05d", i)), rel.NewString(fmt.Sprintf("m%05d", i))}
	}
	if err := tb.AssertTuples("e", facts); err != nil {
		t.Fatal(err)
	}
	facts = nil

	const answers = 32
	kept := make([][]rel.Tuple, 0, answers)
	for i := 0; i < answers; i++ {
		res, err := tb.DB().Query(fmt.Sprintf("SELECT * FROM %s WHERE c0 = 'n%05d'", BaseTableName("e"), i*300+7))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("answer %d: %d rows", i, len(res.Tuples))
		}
		kept = append(kept, res.Tuples)
	}
	with := liveHeap()
	check := kept[answers-1][0][1].Str
	kept = nil
	without := liveHeap()
	answerBytes := int64(with) - int64(without)
	t.Logf("%d one-row answers retain %d bytes (parent %d)", answers, answerBytes, parentAnswerBytes)
	if check != fmt.Sprintf("m%05d", (answers-1)*300+7) {
		t.Fatalf("last answer read %q", check)
	}
	if limit := int64(parentAnswerBytes + parentAnswerBytes/20); answerBytes > limit {
		t.Errorf("%d one-row answers retain %d bytes, the parent's rows %d: a result is pinning the blocks it was read from",
			answers, answerBytes, parentAnswerBytes)
	}

	before := liveHeap()
	if err := tb.CreateFactIndex("e", 0); err != nil {
		t.Fatal(err)
	}
	indexBytes := int64(liveHeap()) - int64(before)
	t.Logf("the index over %d rows retains %d bytes (parent %d)", rows, indexBytes, parentIndexBytes)
	if limit := int64(parentIndexBytes + parentIndexBytes/20); indexBytes > limit {
		t.Errorf("the index over %d rows retains %d bytes, the parent's %d: keys are pinning the blocks they were read from",
			rows, indexBytes, parentIndexBytes)
	}
	runtime.KeepAlive(tb)
}

// TestRetainedBytesBounded: a served D/KB keeps the answers of its
// cached queries and, once commits move their inputs, views linear in
// those answers. A right-linear closure over a chain, queried from 64
// different bound constants, is factored: a reachability set from the
// constant and one answer join, each at most the answer's rows plus one
// (under generalized magic sets the accumulators grew with the square
// of the chain: 13.54 MiB at 200 edges after one commit, 60.46 MiB at
// 400, go1.24 linux/amd64).
//
// Static half: no commit moves the chain, so no query keeps a view, and
// the cache retains its answers within 3 MiB. Written half: one commit
// to the chain has each memo re-evaluated ("plan") and keep a view; with
// all 64 views the cache still retains within 3 MiB, and the 400-edge
// chain at most 2.2× what the 200-edge chain does. The commit after that
// is maintained, against the closure.
func TestRetainedBytesBounded(t *testing.T) {
	if raceEnabled {
		// One goroutine, nothing to race; its 128 closures take long
		// under the detector. CI's allocation pins run it.
		t.Skip("single-goroutine heap measurement; runs without -race")
	}
	written := make(map[int]int64)
	for _, edges := range []int{200, 400} {
		written[edges] = retainedByChain(t, edges)
	}
	if ratio := float64(written[400]) / float64(written[200]); ratio > 2.2 {
		t.Errorf("after a commit, the 400-edge chain's cache retains %.2f× the 200-edge chain's (%d and %d bytes), more than 2.2×",
			ratio, written[400], written[200])
	}
}

// retainedByChain runs both halves of TestRetainedBytesBounded on one
// chain of the given length and returns the written half's bytes.
func retainedByChain(t *testing.T, edges int) int64 {
	const queries, limit = 64, 3 << 20
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	tb := NewMemory()
	chain := make([]rel.Tuple, edges)
	for i := range chain {
		chain[i] = rel.Tuple{rel.NewString(node(i)), rel.NewString(node(i + 1))}
	}
	if err := tb.AssertTuples("e", chain); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad("r(X, Y) :- e(X, Y).\nr(X, Y) :- e(X, Z), r(Z, Y).")
	c := NewConcurrent(tb)
	defer c.Close()
	// closure is the chain's closure from node k to node last.
	closure := func(k, last int) string {
		keys := make([]string, 0, last-k)
		for i := k + 1; i <= last; i++ {
			keys = append(keys, node(i))
		}
		sort.Strings(keys)
		return strings.Join(keys, ";")
	}
	// queryAll poses all 64 texts against a chain that ends at last,
	// each answered with the given cache outcome, and returns the answer
	// rows.
	queryAll := func(last int, cache string) int {
		t.Helper()
		rows := 0
		for k := 0; k < queries; k++ {
			res, err := c.Query(fmt.Sprintf("?- r(%s, Y).", node(k)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowsKey(res), closure(k, last); got != want {
				t.Fatalf("r(%s, Y): %d rows, not the chain's closure (%d rows)", node(k), len(res.Rows), last-k)
			}
			if res.Cache != cache {
				t.Fatalf("r(%s, Y): cache=%q, want %q", node(k), res.Cache, cache)
			}
			rows += len(res.Rows)
		}
		return rows
	}
	// held is the heap retained since base. A reading below zero (the
	// collection freed more of the process's own memory than the cache
	// holds) is a failed measurement: it is taken again, up to ten
	// times.
	held := func(base uint64) int64 {
		t.Helper()
		for range 10 {
			if n := int64(liveHeap()) - int64(base); n >= 0 {
				return n
			}
		}
		t.Fatalf("could not measure the heap the cache retains: every one of 10 readings came out below zero")
		return 0
	}

	base := liveHeap()
	rows := queryAll(edges, "miss")
	static := held(base)
	t.Logf("%d edges: %d cached queries retain %.2f MiB for %d answer rows", edges, queries, float64(static)/(1<<20), rows)
	if static > limit {
		t.Errorf("%d edges: %d cached queries on a static D/KB retain %d bytes, more than %d", edges, queries, static, limit)
	}
	if st := c.MatViewStats(); st.Live != 0 {
		t.Errorf("%d edges: a static D/KB holds %d materialized views, want 0", edges, st.Live)
	}

	if err := c.Load(fmt.Sprintf("e(%s, %s).", node(edges), node(edges+1))); err != nil {
		t.Fatal(err)
	}
	rows = queryAll(edges+1, "plan")
	written := held(base)
	t.Logf("%d edges: after a commit, %d cached queries with %d views retain %.2f MiB for %d answer rows",
		edges, queries, c.MatViewStats().Live, float64(written)/(1<<20), rows)
	if written > limit {
		t.Errorf("%d edges: after a commit to the chain, %d cached queries retain %d bytes, more than %d", edges, queries, written, limit)
	}

	if err := c.Load(fmt.Sprintf("e(%s, %s).", node(edges+1), node(edges+2))); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(fmt.Sprintf("?- r(%s, Y).", node(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "maintained" {
		t.Errorf("%d edges, second commit to the chain: cache=%q, want \"maintained\"", edges, res.Cache)
	}
	if got, want := rowsKey(res), closure(0, edges+2); got != want {
		t.Fatalf("%d edges, second commit to the chain: %d rows, not the chain's closure (%d rows)", edges, len(res.Rows), edges+2)
	}
	return written
}
