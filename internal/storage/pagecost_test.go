package storage

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
)

// TestInMemoryPageCost pins what an in-memory page costs. The store is
// the pool's frames, so a page is one exact PageSize buffer beside a
// small header: allocating 256 pages grows the heap by at most PageSize
// + 128 bytes each (a page held once in the store and once, rounded up
// to a 4 864-byte size class, in its frame cost 8 960). And a miss —
// evict, then fetch again — re-installs the page it evicted instead of
// reading a copy into a new buffer: under 256 bytes allocated per miss.
func TestInMemoryPageCost(t *testing.T) {
	const pages = 256
	// heapGrowth returns the live heap one pager of n allocated pages
	// holds beyond a fresh one, the least of three readings.
	heapGrowth := func(n int) int64 {
		least := int64(1 << 62)
		for range 3 {
			p := NewMemPager(n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // the second frees what the first moved to sync.Pool victim caches
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				pg, err := p.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				p.Unpin(pg)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(p)
			least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		}
		return least
	}
	per, bound := heapGrowth(pages)/pages, int64(PageSize+128)
	t.Logf("an in-memory page costs %d bytes of heap", per)
	if per > bound {
		t.Errorf("an in-memory page costs %d bytes of heap, bound %d", per, bound)
	}

	// Eight pages through four frames: fetching them round-robin misses
	// every time.
	p := NewMemPager(4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Insert([]byte{byte(i)})
		ids = append(ids, pg.ID)
		p.Unpin(pg)
	}
	fetch := func(id PageID) {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec := pg.Record(0); len(rec) != 1 || rec[0] != byte(id) {
			t.Fatalf("page %d holds %v after a miss", id, rec)
		}
		p.Unpin(pg)
	}
	for _, id := range ids {
		fetch(id)
	}
	const rounds = 64
	missesBefore := p.Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, id := range ids {
			fetch(id)
		}
	}
	runtime.ReadMemStats(&after)
	misses := p.Stats().Misses - missesBefore
	if misses != rounds*int64(len(ids)) {
		t.Fatalf("%d misses in %d fetches; the pool was meant to miss on every one", misses, rounds*len(ids))
	}
	perMiss := int64(after.TotalAlloc-before.TotalAlloc) / misses
	t.Logf("a miss on an in-memory page allocates %d bytes", perMiss)
	if perMiss >= 256 {
		t.Errorf("a miss on an in-memory page allocates %d bytes, want < 256 (no page buffer)", perMiss)
	}
}

// FuzzPagerOps runs a byte string as a sequence of (operation, argument)
// pairs against an in-memory pager and a file-backed one with the same
// tiny pool: Allocate, AllocateReusable, Fetch, insert or delete a
// record on a pinned page, Unpin, Free, Flush, and on the temp region
// AllocateTemp (which may add the page to the group of the last temp
// page), an insert on a pinned temp page and Free of a temp group. After
// every step both report the same PagerStats and temp-region sizes,
// every pinned page holds the same bytes on both sides — a page
// written, evicted and fetched again included, which in memory is the
// page itself and on file a read — and the file is exactly as long as
// its own pages: a temp page never extends it. At the end the file,
// closed and reopened, holds the bytes of every in-memory page outside
// the temp region, and no temp page.
func FuzzPagerOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 40, 3, 200, 5, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pool := 4 << (data[0] % 2) // 4 or 8 frames
		mem := NewMemPager(pool)
		path := t.TempDir() + "/pager.db"
		file, err := OpenPager(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if file != nil {
				file.Close()
			}
		}()
		for _, p := range []*Pager{mem, file} {
			if _, err := p.EnsureSuperblock(); err != nil {
				t.Fatal(err)
			}
		}

		type pair struct{ m, f *Page }
		var (
			pinned []pair
			// owned are the first pages of the groups allocated and not
			// freed (never 0, the superblock); chain maps each to the
			// group's pages, which one Free frees.
			owned     []PageID
			chain     = map[PageID][]PageID{}
			filePages = PageID(1) // the superblock
			lastTemp  pair        // the temp page allocated last
			step      int
			what      string
		)
		check := func() {
			t.Helper()
			if ms, fs := mem.Stats(), file.Stats(); ms != fs {
				t.Fatalf("step %d (%s): in memory %+v, on file %+v", step, what, ms, fs)
			}
			for _, pp := range pinned {
				if pp.m.ID != pp.f.ID || *pp.m.Data != *pp.f.Data {
					t.Fatalf("step %d (%s): page %d in memory and page %d on file hold different bytes", step, what, pp.m.ID, pp.f.ID)
				}
			}
			if mem.TempPages() != file.TempPages() || mem.TempFreePages() != file.TempFreePages() {
				t.Fatalf("step %d (%s): temp region of %d pages, %d free, in memory; %d, %d free, on file", step, what,
					mem.TempPages(), mem.TempFreePages(), file.TempPages(), file.TempFreePages())
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if mem.PageCount() != filePages || file.PageCount() != filePages || st.Size() != int64(filePages)*PageSize {
				t.Fatalf("step %d (%s): %d pages allocated outside the temp region; %d in memory, %d on file, a file of %d bytes",
					step, what, filePages, mem.PageCount(), file.PageCount(), st.Size())
			}
		}
		// both runs one call on each pager; their errors must agree.
		both := func(call func(p *Pager) (*Page, error)) (pair, bool) {
			t.Helper()
			m, merr := call(mem)
			fp, ferr := call(file)
			if (merr == nil) != (ferr == nil) {
				t.Fatalf("step %d (%s): in memory %v, on file %v", step, what, merr, ferr)
			}
			return pair{m, fp}, merr == nil
		}
		isPinned := func(id PageID) bool {
			for _, pp := range pinned {
				if pp.m.ID == id {
					return true
				}
			}
			return false
		}
		// freeable reports whether no page of owned group k is pinned.
		freeable := func(k int) bool { return !slices.ContainsFunc(chain[owned[k]], isPinned) }
		insert := func(pp pair, arg int) {
			rec := bytes.Repeat([]byte{byte(step)}, arg*7%400)
			what = fmt.Sprintf("insert %d bytes on page %d", len(rec), pp.m.ID)
			ms, merr := pp.m.Insert(rec)
			fs, ferr := pp.f.Insert(rec)
			if ms != fs || (merr == nil) != (ferr == nil) {
				t.Fatalf("step %d (%s): in memory slot %d, %v; on file slot %d, %v", step, what, ms, merr, fs, ferr)
			}
		}
		var (
			temps     []pair // the pinned temp pages, for op 9
			tempFrees []int  // the freeable owned temp groups, for op 10
		)
		for i := 1; i+1 < len(data) && i < 600; i += 2 {
			// Ops 0–7 act on either region and keep the meaning they had
			// before the temp region existed; 8–10 act on the temp region.
			op, arg := data[i]%11, int(data[i+1])
			step++
			temps, tempFrees = temps[:0], tempFrees[:0]
			for _, pp := range pinned {
				if pp.m.ID >= TempBase {
					temps = append(temps, pp)
				}
			}
			for k, head := range owned {
				if head >= TempBase && freeable(k) {
					tempFrees = append(tempFrees, k)
				}
			}
			free := -1 // the owned group ops 6 and 10 free
			switch {
			case op == 6 && len(owned) > 0 && freeable(arg%len(owned)):
				free = arg % len(owned)
			case op == 10 && len(tempFrees) > 0:
				free = tempFrees[arg%len(tempFrees)]
			}
			switch {
			case op == 0 || op == 1:
				what = "Allocate"
				alloc := (*Pager).Allocate
				if op == 1 {
					what, alloc = "AllocateReusable", (*Pager).AllocateReusable
				}
				if pp, ok := both(alloc); ok {
					pinned = append(pinned, pp)
					owned = append(owned, pp.m.ID)
					chain[pp.m.ID] = []PageID{pp.m.ID}
					filePages = max(filePages, pp.m.ID+1)
				}
			case op == 2 && len(owned) > 0:
				id := owned[arg%len(owned)]
				what = fmt.Sprintf("Fetch %d", id)
				if pp, ok := both(func(p *Pager) (*Page, error) { return p.Fetch(id) }); ok {
					pinned = append(pinned, pp)
				}
			case op == 3 && len(pinned) > 0:
				insert(pinned[arg%len(pinned)], arg)
			case op == 4 && len(pinned) > 0:
				pp := pinned[arg%len(pinned)]
				slot := arg % (pp.m.SlotCount() + 1)
				what = fmt.Sprintf("delete slot %d on page %d", slot, pp.m.ID)
				merr, ferr := pp.m.Delete(slot), pp.f.Delete(slot)
				if (merr == nil) != (ferr == nil) {
					t.Fatalf("step %d (%s): in memory %v, on file %v", step, what, merr, ferr)
				}
			case op == 5 && len(pinned) > 0:
				k := arg % len(pinned)
				what = fmt.Sprintf("Unpin %d", pinned[k].m.ID)
				mem.Unpin(pinned[k].m)
				file.Unpin(pinned[k].f)
				pinned = append(pinned[:k], pinned[k+1:]...)
			case free >= 0:
				// Only temp groups have more than one page: op 8 makes
				// them.
				id := owned[free]
				what = fmt.Sprintf("Free %d (%d pages)", id, len(chain[id]))
				both(func(p *Pager) (*Page, error) { return nil, p.Free(chain[id]) })
				owned = append(owned[:free], owned[free+1:]...)
				delete(chain, id)
			case op == 8:
				what = "AllocateTemp"
				pp, ok := both((*Pager).AllocateTemp)
				if !ok {
					break
				}
				pinned = append(pinned, pp)
				// An odd argument adds the page to the group of the temp
				// page allocated last, while that page is pinned and its
				// group is owned.
				head := pp.m.ID
				if arg%2 == 1 && lastTemp.m != nil && isPinned(lastTemp.m.ID) {
					for _, h := range owned {
						if c := chain[h]; c[len(c)-1] == lastTemp.m.ID {
							head = h
						}
					}
				}
				if head == pp.m.ID {
					owned = append(owned, head)
				} else {
					what += fmt.Sprintf(" in the group of %d", head)
				}
				chain[head] = append(chain[head], pp.m.ID)
				lastTemp = pp
			case op == 9 && len(temps) > 0:
				insert(temps[arg%len(temps)], arg)
			case op == 7:
				what = "Flush"
				both(func(p *Pager) (*Page, error) { return nil, p.Flush() })
			default:
				continue
			}
			check()
		}

		for _, pp := range pinned {
			mem.Unpin(pp.m)
			file.Unpin(pp.f)
		}
		pages := mem.PageCount()
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		file = nil
		re, err := OpenPager(path, pool)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := re.PageCount(); got != pages {
			t.Fatalf("the file reopens with %d pages, memory has %d", got, pages)
		}
		if pg, err := re.Fetch(TempBase); err == nil {
			re.Unpin(pg)
			t.Fatalf("the reopened file has a temp page")
		}
		for id := PageID(0); id < pages; id++ {
			m, err := mem.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := re.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if *m.Data != *fp.Data {
				t.Fatalf("page %d: the reopened file holds other bytes than memory", id)
			}
			mem.Unpin(m)
			re.Unpin(fp)
		}
	})
}
