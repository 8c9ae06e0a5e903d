package dkbms

import (
	"fmt"
	"runtime"
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
