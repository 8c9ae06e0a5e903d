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

// TestRetainedBytesBounded: a served D/KB that never changes keeps the
// answers of its cached queries, not their evaluations' accumulators.
// A right-linear closure over a 200-edge chain, queried from 64
// different bound constants, runs magic programs whose accumulators
// grow with the square of the chain: kept as materialized views they
// retained 13.5 MiB for 10 784 answer rows (go1.24 linux/amd64). No
// commit ever moves the chain, so no query keeps a view, and the cache
// retains its answers within 3 MiB. The first commit to the chain then
// has each memo re-evaluated ("plan"), the re-evaluation keeps a view,
// and the commit after that is maintained — both against the closure.
func TestRetainedBytesBounded(t *testing.T) {
	if raceEnabled {
		// One goroutine, nothing to race; its 64 quadratic closures take
		// about a minute under the detector. CI's allocation pins run it.
		t.Skip("single-goroutine heap measurement; runs without -race")
	}
	const edges, queries = 200, 64
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
	query := func(k int) *QueryResult {
		t.Helper()
		res, err := c.Query(fmt.Sprintf("?- r(%s, Y).", node(k)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := liveHeap()
	rows := 0
	for k := 0; k < queries; k++ {
		res := query(k)
		if got, want := rowsKey(res), closure(k, edges); got != want {
			t.Fatalf("r(%s, Y): %d rows, not the chain's closure (%d rows)", node(k), len(res.Rows), edges-k)
		}
		rows += len(res.Rows)
	}
	// A reading below zero (the collection freed more of the process's
	// own memory than the cache holds) is a failed measurement: it is
	// taken again, up to ten times.
	held := int64(-1)
	for i := 0; i < 10 && held < 0; i++ {
		held = int64(liveHeap()) - int64(base)
	}
	if held < 0 {
		t.Fatalf("could not measure the heap the cache retains: every one of 10 readings came out below zero")
	}
	t.Logf("%d cached queries retain %.2f MiB for %d answer rows", queries, float64(held)/(1<<20), rows)
	const limit = 3 << 20
	if held > limit {
		t.Errorf("%d cached queries on a static D/KB retain %d bytes, more than %d", queries, held, limit)
	}
	if st := c.MatViewStats(); st.Live != 0 {
		t.Errorf("a static D/KB holds %d materialized views, want 0", st.Live)
	}

	for i, cache := range []string{"plan", "maintained"} {
		if err := c.Load(fmt.Sprintf("e(%s, %s).", node(edges+i), node(edges+i+1))); err != nil {
			t.Fatal(err)
		}
		res := query(0)
		if res.Cache != cache {
			t.Errorf("commit %d to the chain: cache=%q, want %q", i+1, res.Cache, cache)
		}
		if got, want := rowsKey(res), closure(0, edges+i+1); got != want {
			t.Fatalf("commit %d to the chain: %d rows, not the chain's closure (%d rows)", i+1, len(res.Rows), edges+i+1)
		}
	}
}
