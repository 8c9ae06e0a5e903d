package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stressMarker is the single record each stress page carries: derived
// from the page ID, so any cross-page mixup or lost write-back shows up
// as a content mismatch.
func stressMarker(id PageID) []byte {
	return []byte(fmt.Sprintf("page-%08d", id))
}

// TestPagerConcurrentStress hammers a tiny pool (8 frames) with
// concurrent Fetch/Unpin/Allocate from many goroutines, so the working
// set is far larger than the pool and eviction with write-back runs
// constantly under load. Run with -race, it exercises the pool latch,
// the atomic pin counts and the grow-then-publish ordering in Allocate;
// content checks catch any page served from the wrong frame or lost
// across eviction.
func TestPagerConcurrentStress(t *testing.T) {
	p := NewMemPager(8)

	// Seed a working set three times the pool size.
	var ids []PageID
	for i := 0; i < 24; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Insert(stressMarker(pg.ID)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}

	const workers = 8
	var mu sync.Mutex // guards ids
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				switch {
				case r.Intn(10) == 0:
					// Grow the working set under concurrent traffic.
					pg, err := p.Allocate()
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := pg.Insert(stressMarker(pg.ID)); err != nil {
						t.Error(err)
						p.Unpin(pg)
						return
					}
					mu.Lock()
					ids = append(ids, pg.ID)
					mu.Unlock()
					p.Unpin(pg)
				default:
					mu.Lock()
					var id PageID
					if r.Intn(4) == 0 {
						id = ids[0] // hot page: contended pin counts
					} else {
						id = ids[r.Intn(len(ids))]
					}
					mu.Unlock()
					pg, err := p.Fetch(id)
					if err != nil {
						t.Errorf("fetch %d: %v", id, err)
						return
					}
					if got := pg.Record(0); !bytes.Equal(got, stressMarker(id)) {
						t.Errorf("page %d served %q, want %q", id, got, stressMarker(id))
						p.Unpin(pg)
						return
					}
					p.Unpin(pg)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions: the stress never exceeded the pool")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("implausible traffic: %+v", st)
	}

	// Quiesced, every page (including evicted ones) must read back
	// intact and end the test unpinned.
	for _, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("final fetch %d: %v", id, err)
		}
		if got := pg.Record(0); !bytes.Equal(got, stressMarker(id)) {
			t.Fatalf("page %d lost content across eviction: %q", id, got)
		}
		if n := pg.pins.Load(); n != 1 {
			t.Fatalf("page %d pin count %d after quiesce, want 1", id, n)
		}
		p.Unpin(pg)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagerConcurrentSamePage pins and unpins one page from many
// goroutines at once: the pure atomic-pin fast path. The page must
// never be evicted while pinned, and the pin count must return to zero.
func TestPagerConcurrentSamePage(t *testing.T) {
	p := NewMemPager(4)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Insert([]byte("shared")); err != nil {
		t.Fatal(err)
	}
	id := pg.ID
	p.Unpin(pg)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pg, err := p.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(pg.Record(0), []byte("shared")) {
					t.Error("content changed under concurrent pins")
					p.Unpin(pg)
					return
				}
				p.Unpin(pg)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	pg, err = p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := pg.pins.Load(); n != 1 {
		t.Fatalf("pin count %d after quiesce, want 1", n)
	}
	p.Unpin(pg)
}

// TestPagerLatchFreeMissRead targets the miss path's latch-free read:
// Fetch drops the pool latch around the backing-store read and retries
// when an eviction write-back overlaps it (the evictGen recheck). A
// file-backed pool one quarter the working-set size keeps cold misses
// and dirty evictions running concurrently. Each page's record is a
// marker prefix plus a run of one version byte; writers bump the version
// under a per-page test lock (exclusive in-memory access, like the heap
// layer's locking above the pager), so a torn read — a page assembled
// from bytes of two different write-backs — shows up as a mixed-version
// run.
func TestPagerLatchFreeMissRead(t *testing.T) {
	path := t.TempDir() + "/miss.db"
	p, err := OpenPager(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	const (
		pages   = 32
		fillLen = 512
	)
	record := func(id PageID, version byte) []byte {
		rec := make([]byte, len(stressMarker(id))+fillLen)
		copy(rec, stressMarker(id))
		for i := len(stressMarker(id)); i < len(rec); i++ {
			rec[i] = version
		}
		return rec
	}
	var ids []PageID
	for i := 0; i < pages; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Insert(record(pg.ID, 0)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	pageLocks := make([]sync.Mutex, pages)
	versions := make([]byte, pages)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 977))
			for i := 0; i < 300; i++ {
				slot := r.Intn(len(ids))
				id := ids[slot]
				pageLocks[slot].Lock()
				pg, err := p.Fetch(id)
				if err != nil {
					pageLocks[slot].Unlock()
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				got := pg.Record(0)
				prefix := stressMarker(id)
				if !bytes.Equal(got[:len(prefix)], prefix) {
					t.Errorf("page %d served marker %q, want %q", id, got[:len(prefix)], prefix)
				}
				fill := got[len(prefix):]
				for j := 1; j < len(fill); j++ {
					if fill[j] != fill[0] {
						t.Errorf("page %d: mixed versions %d and %d at offset %d (torn latch-free read?)",
							id, fill[0], fill[j], j)
						break
					}
				}
				if r.Intn(3) == 0 {
					// Bump the version in place so the page is dirty and
					// its eviction write-back overlaps cold reads.
					versions[slot]++
					copy(got, record(id, versions[slot]))
					pg.Dirty = true
				}
				p.Unpin(pg)
				pageLocks[slot].Unlock()
				if t.Failed() {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := p.Stats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("stress never exercised the miss/eviction paths: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTempHeapsConcurrent runs temp heaps on many goroutines at once
// beside a file heap, through a tiny pool: each goroutine creates a temp
// heap, fills it past a page, reads every record back and drops it, so
// the temp region grows, its free list is popped and pushed, and its
// pages are evicted and re-installed under one another's traffic. Every
// heap reads back exactly its own records, the file never grows for a
// temp page, and at the end every temp page is free.
func TestTempHeapsConcurrent(t *testing.T) {
	p, err := OpenPager(t.TempDir()+"/temp.db", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.EnsureSuperblock(); err != nil {
		t.Fatal(err)
	}
	stored := CreateHeap(p)
	filePages := p.PageCount()

	const workers, rounds, recs = 6, 20, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := CreateTempHeap(p)
				for i := 0; i < recs; i++ {
					rec := bytes.Repeat([]byte{byte(w)}, 100+i)
					if _, err := h.Insert(rec); err != nil {
						t.Error(err)
						return
					}
				}
				err := h.EachPage(func(id PageID) error {
					if id < TempBase {
						return fmt.Errorf("temp heap holds file page %d", id)
					}
					return nil
				})
				n := 0
				if err == nil {
					err = h.Scan(func(rid RID, rec []byte) error {
						if len(rec) != 100+n || rec[0] != byte(w) {
							return fmt.Errorf("worker %d round %d: record %d is %d bytes of %d", w, r, n, len(rec), rec[0])
						}
						n++
						return nil
					})
				}
				if err == nil && n != recs {
					err = fmt.Errorf("worker %d round %d: %d records, want %d", w, r, n, recs)
				}
				if err == nil {
					err = h.Drop()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// The file heap takes traffic meanwhile: two pages of records.
	for i := 0; i < 100; i++ {
		if _, err := stored.Insert(bytes.Repeat([]byte("s"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got, want := p.TempFreePages(), p.TempPages(); got != want || want == 0 {
		t.Errorf("every temp heap dropped, yet %d of %d temp pages are free", got, want)
	}
	if got := p.PageCount(); got != filePages+2 {
		t.Errorf("the file went from %d to %d pages for two pages of file records", filePages, got)
	}
}
