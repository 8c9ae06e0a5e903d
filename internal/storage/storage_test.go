package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestPageInsertGetDelete(t *testing.T) {
	var p Page
	p.Init()
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Record(s1), []byte("hello")) || !bytes.Equal(p.Record(s2), []byte("world!")) {
		t.Fatal("records corrupted")
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if p.Record(s1) != nil {
		t.Fatal("deleted record still readable")
	}
	if p.LiveRecords() != 1 {
		t.Fatalf("live records = %d, want 1", p.LiveRecords())
	}
	// Dead slot gets reused.
	s3, err := p.Insert([]byte("again"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("dead slot not reused: got %d want %d", s3, s1)
	}
}

func TestPageDeleteErrors(t *testing.T) {
	var p Page
	p.Init()
	if err := p.Delete(0); err == nil {
		t.Fatal("delete of nonexistent slot succeeded")
	}
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(s); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestPageFillAndCompact(t *testing.T) {
	var p Page
	p.Init()
	rec := bytes.Repeat([]byte("a"), 100)
	var slots []int
	for p.HasRoom(len(rec)) {
		s, err := p.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("expected ~39 records per page, got %d", len(slots))
	}
	if _, err := p.Insert(rec); err == nil {
		t.Fatal("insert into full page succeeded")
	}
	// Delete every other record, compact, verify survivors.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Compact()
	for i := 1; i < len(slots); i += 2 {
		if !bytes.Equal(p.Record(slots[i]), rec) {
			t.Fatalf("record %d lost after compact", slots[i])
		}
	}
	// Compaction must have opened room.
	if !p.HasRoom(len(rec)) {
		t.Fatal("no room after compact")
	}
}

func TestPageOversizeRecord(t *testing.T) {
	var p Page
	p.Init()
	if _, err := p.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestPagerAllocateFetchPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	p, err := OpenPager(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	slot, err := pg.Insert([]byte("persistent"))
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	p.Unpin(pg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPager(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.PageCount() != 1 {
		t.Fatalf("page count after reopen = %d", p2.PageCount())
	}
	pg2, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Unpin(pg2)
	if !bytes.Equal(pg2.Record(slot), []byte("persistent")) {
		t.Fatal("record lost across close/reopen")
	}
}

func TestPagerEviction(t *testing.T) {
	p := NewMemPager(4)
	var ids []PageID
	for i := 0; i < 16; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("expected evictions with a 4-page pool and 16 pages")
	}
	// All pages must still be readable (write-back on eviction).
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec := pg.Record(0); len(rec) != 1 || rec[0] != byte(i) {
			t.Fatalf("page %d content lost across eviction", id)
		}
		p.Unpin(pg)
	}
}

func TestPagerFetchUnallocated(t *testing.T) {
	p := NewMemPager(4)
	if _, err := p.Fetch(0); err == nil {
		t.Fatal("fetch of unallocated page succeeded")
	}
}

func TestHeapInsertScanDelete(t *testing.T) {
	p := NewMemPager(32)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	cnt, err := h.Count()
	if err != nil || cnt != n {
		t.Fatalf("count = %d, %v; want %d", cnt, err, n)
	}
	// Point lookups.
	for i := 0; i < n; i += 37 {
		rec, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d corrupted: %q", i, rec)
		}
	}
	// Delete a third; verify survivors via scan.
	deleted := make(map[RID]bool)
	for i := 0; i < n; i += 3 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
		deleted[rids[i]] = true
	}
	seen := 0
	err = h.Scan(func(rid RID, rec []byte) error {
		if deleted[rid] {
			return fmt.Errorf("deleted rid %s still in scan", rid)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := n - len(deleted); seen != want {
		t.Fatalf("scan saw %d records, want %d", seen, want)
	}
}

func TestHeapGetErrors(t *testing.T) {
	p := NewMemPager(8)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("get of deleted record succeeded")
	}
}

func TestHeapTruncate(t *testing.T) {
	p := NewMemPager(64)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Truncate(); err != nil {
		t.Fatal(err)
	}
	cnt, err := h.Count()
	if err != nil || cnt != 0 {
		t.Fatalf("count after truncate = %d, %v", cnt, err)
	}
	// Heap stays usable.
	if _, err := h.Insert([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	cnt, _ = h.Count()
	if cnt != 1 {
		t.Fatalf("count after reinsert = %d", cnt)
	}
}

func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.pages")
	p, err := OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	head := h.Head()
	for i := 0; i < 300; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPager(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	h2 := OpenHeap(p2, head)
	cnt, err := h2.Count()
	if err != nil || cnt != 300 {
		t.Fatalf("count after reopen = %d, %v", cnt, err)
	}
}

func TestHeapRandomizedAgainstModel(t *testing.T) {
	// Model-based randomized test: the heap must agree with a map model
	// under a random interleaving of inserts, deletes and lookups.
	p := NewMemPager(16)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[RID]string)
	var live []RID
	r := rand.New(rand.NewSource(42))
	for op := 0; op < 5000; op++ {
		switch {
		case len(live) == 0 || r.Intn(3) > 0:
			rec := fmt.Sprintf("v%d-%d", op, r.Intn(1000))
			rid, err := h.Insert([]byte(rec))
			if err != nil {
				t.Fatal(err)
			}
			if _, clash := model[rid]; clash {
				t.Fatalf("rid %s handed out twice while live", rid)
			}
			model[rid] = rec
			live = append(live, rid)
		default:
			i := r.Intn(len(live))
			rid := live[i]
			got, err := h.Get(rid)
			if err != nil || string(got) != model[rid] {
				t.Fatalf("get %s = %q, %v; want %q", rid, got, err, model[rid])
			}
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	// Final state check via scan.
	got := make(map[RID]string)
	if err := h.Scan(func(rid RID, rec []byte) error {
		got[rid] = string(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("scan found %d records, model has %d", len(got), len(model))
	}
	for rid, want := range model {
		if got[rid] != want {
			t.Fatalf("rid %s = %q, want %q", rid, got[rid], want)
		}
	}
}

func TestPagerStats(t *testing.T) {
	p := NewMemPager(8)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	p.Unpin(pg)
	if _, err := p.Fetch(id); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Hits == 0 {
		t.Fatal("expected a buffer-pool hit")
	}
}

func BenchmarkHeapScan(b *testing.B) {
	p := NewMemPager(4096)
	h, _ := CreateHeap(p)
	rec := bytes.Repeat([]byte("x"), 32)
	for i := 0; i < 10000; i++ {
		h.Insert(rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := h.Scan(func(RID, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatal("short scan")
		}
	}
}

func TestHeapStats(t *testing.T) {
	p := NewMemPager(64)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := h.Insert([]byte("record"))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := h.Get(rids[3]); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[4]); err != nil {
		t.Fatal(err)
	}
	if err := h.Scan(func(RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	want := HeapStats{Reads: 1, Inserts: 10, Deletes: 1, Scans: 1, PagesScanned: 1, RecsScanned: 9}
	if st != want {
		t.Fatalf("Stats() = %+v, want %+v", st, want)
	}
	// Sub yields the traffic between two snapshots.
	if _, err := h.Insert([]byte("more")); err != nil {
		t.Fatal(err)
	}
	d := h.Stats().Sub(st)
	if d != (HeapStats{Inserts: 1}) {
		t.Fatalf("delta = %+v, want one insert", d)
	}
	if h.Pager() != p {
		t.Fatal("Pager() must return the backing pager")
	}
}

func TestPagerShardStats(t *testing.T) {
	p := NewMemPager(64)
	h, _ := CreateHeap(p)
	for i := 0; i < 100; i++ {
		h.Insert([]byte("record-payload-to-fill-pages-quickly"))
	}
	h.Scan(func(RID, []byte) error { return nil })
	per := p.ShardStats()
	if len(per) != p.Shards() {
		t.Fatalf("ShardStats has %d entries, want %d", len(per), p.Shards())
	}
	var sum PagerStats
	for _, s := range per {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
		sum.Writes += s.Writes
	}
	if sum != p.Stats() {
		t.Fatalf("shard sum %+v != aggregate %+v", sum, p.Stats())
	}
	if sum.Hits == 0 {
		t.Fatal("expected buffer-pool hits after scanning resident pages")
	}
}
