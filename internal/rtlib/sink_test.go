package rtlib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dkbms/internal/db"
	"dkbms/internal/rel"
)

var pairSchema = rel.MustSchema(rel.Column{Name: "a", Type: rel.TypeString}, rel.Column{Name: "b", Type: rel.TypeString})

// answerRelation returns a database holding the temp relation ans of
// the given (a, b) rows, and the statement a run reads its answer with.
func answerRelation(t *testing.T, rows []rel.Tuple) (*db.DB, *db.Stmt) {
	t.Helper()
	d := db.OpenMemory()
	t.Cleanup(func() { d.Close() })
	if err := d.CreateTempTable("ans", pairSchema); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertTuples("ans", rows); err != nil {
		t.Fatal(err)
	}
	all, err := newStatements(d, map[string]*rel.Schema{"p": pairSchema}).relation("p", readAll)
	if err != nil {
		t.Fatal(err)
	}
	return d, all
}

// edges returns the n-1 edges (t<i/2>, t<i>) of a binary tree.
func edges(n int) []rel.Tuple {
	rows := make([]rel.Tuple, 0, n)
	for i := 1; i < n; i++ {
		rows = append(rows, rel.Tuple{rel.NewString(fmt.Sprintf("t%d", i/2)), rel.NewString(fmt.Sprintf("t%d", i))})
	}
	return rows
}

// TestReadRowsAllocs pins the rows sink of a run's answer read on a
// string relation of many pages: it allocates one value slab, sized by
// the table's row count, one character buffer, sized once by its
// record bytes and handed to the rows as their string, and the list of
// the rows — 3 objects, no buffer grown a page at a time and no copy of
// a record — under a context that can be cancelled as under one that
// cannot, at 10 rows as at 2 047.
func TestReadRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, n := range []int{11, 2048} {
		rows := edges(n)
		d, all := answerRelation(t, rows)
		if n > 1000 && d.Table("ans").Heap.Len() < 4 {
			t.Fatalf("the relation spans %d pages, want several", d.Table("ans").Heap.Len())
		}
		for _, ctx := range []context.Context{context.Background(), cctx} {
			read := func() {
				got, err := readRows(ctx, d, all, "ans")
				if err != nil || len(got) != len(rows) {
					t.Fatalf("read %d rows (%v), want %d", len(got), err, len(rows))
				}
			}
			read()
			if a := testing.AllocsPerRun(20, read); a != 3 {
				t.Errorf("%d rows: reading the answer allocates %.1f objects, want 3: the value slab, the character buffer and the row list", len(rows), a)
			}
		}
		chars := 0
		for _, r := range rows {
			chars += len(r[0].Str) + len(r[1].Str)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readRows(context.Background(), d, all, "ans")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Each allocation rounds up to its size class: at most an 8 KiB
		// page over sizes this large.
		slab, list := len(got)*2*rel.ValueSize, len(got)*24
		if spent := int(after.TotalAlloc - before.TotalAlloc); spent > slab+chars+list+3*8192 {
			t.Errorf("%d rows: the read allocated %d bytes for a %d-byte slab, %d bytes of characters and a %d-byte row list", len(rows), spent, slab, chars, list)
		}
	}
}

// TestReadBlockIsTheWireBlock: the block sink of a run's answer read
// writes rel.AppendRows of the relation's rows as DB.Query returns
// them, byte for byte — the records in chain order, a dead slot
// skipped, a record of 128 bytes or more behind a two-byte length, no
// rows as no columns — into a block whose capacity is its length, so a
// memo of it holds no slack; without such a record it allocates the
// block alone, under a context that can be cancelled as under one that
// cannot.
func TestReadBlockIsTheWireBlock(t *testing.T) {
	d, all := answerRelation(t, nil)
	ctx := context.Background()
	same := func(step string) {
		t.Helper()
		sameBlock(t, d, all, step)
	}
	same("empty")
	if err := d.InsertTuples("ans", edges(1024)); err != nil {
		t.Fatal(err)
	}
	if d.Table("ans").Heap.Len() < 2 {
		t.Fatal("the relation spans one page, want several")
	}
	if err := d.Exec("DELETE FROM ans WHERE b = 't500'"); err != nil {
		t.Fatal(err)
	}
	same("many pages, one dead slot")
	if !raceEnabled {
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for _, c := range []context.Context{ctx, cctx} {
			if n := testing.AllocsPerRun(20, func() {
				if _, err := readBlock(c, d, all, "ans"); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Errorf("reading the answer's block allocates %.1f objects, want 1: the block, sized once", n)
			}
		}
	}
	if err := d.InsertTuples("ans", []rel.Tuple{{rel.NewString("long"), rel.NewString(strings.Repeat("x", 200))}}); err != nil {
		t.Fatal(err)
	}
	same("a 200-byte string")
	if err := d.Exec("DELETE FROM ans"); err != nil {
		t.Fatal(err)
	}
	same("truncated")
}

// sameBlock fails t unless the block sink's read of ans is rel.AppendRows
// of the rows DB.Query returns, byte for byte, in a block whose capacity
// is its length.
func sameBlock(t *testing.T, d *db.DB, all *db.Stmt, step string) {
	t.Helper()
	got, err := readBlock(context.Background(), d, all, "ans")
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Query("SELECT * FROM ans")
	if err != nil {
		t.Fatal(err)
	}
	if w := rel.AppendRows(nil, want.Tuples); !bytes.Equal(got, w) {
		t.Fatalf("%s: the answer's block differs from rel.AppendRows of its rows\n got: %x\nwant: %x", step, got, w)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: a block of %d bytes has capacity %d", step, len(got), cap(got))
	}
}

// TestReadBlockKeepsNoSlack: when records of 128 bytes or more outgrow
// the room the maintained counts size (one length byte a record), the
// block sink copies the block to its length, so a memo of it holds no
// slack.
func TestReadBlockKeepsNoSlack(t *testing.T) {
	// 20 000 extra length bytes: more than the 8 KiB a large allocation
	// is rounded up by, so the room the counts size is outgrown.
	long := make([]rel.Tuple, 20000)
	for i := range long {
		long[i] = rel.Tuple{rel.NewString(fmt.Sprint(i)), rel.NewString(strings.Repeat("x", 130))}
	}
	d, all := answerRelation(t, long)
	sameBlock(t, d, all, "20 000 records of 130 bytes and more")
}

// countdown is a context whose Err reports cancellation from its
// left+1-th call on.
type countdown struct {
	context.Context
	left int
}

func (c *countdown) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestSinksObserveCtx: every sink observes the run's context between
// records, so a read cancelled within its one scan stops with the
// context's error — db.Stmt.Scan observes it only before the pass.
func TestSinksObserveCtx(t *testing.T) {
	d, all := answerRelation(t, edges(1024))
	for name, read := range map[string]func(ctx context.Context) error{
		"count": func(ctx context.Context) error { _, err := countRows(ctx, d, all, "ans"); return err },
		"rows":  func(ctx context.Context) error { _, err := readRows(ctx, d, all, "ans"); return err },
		"block": func(ctx context.Context) error { _, err := readBlock(ctx, d, all, "ans"); return err },
	} {
		if err := read(&countdown{context.Background(), 1 << 30}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := read(&countdown{context.Background(), 10}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled after 10 records, the read returned %v", name, err)
		}
	}
}
