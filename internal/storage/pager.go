package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Pager provides page-granular access to a backing store — either a file
// on disk or an anonymous in-memory store — through a buffer pool with
// LRU eviction. All tables and indexes of one database share one Pager
// (single-file database layout); temp tables' pages live in its
// in-memory temp region (TempBase) in both modes.
//
// Concurrency model: one pool latch (mu) guards the frame table, the LRU
// list and the traffic counters. Pin counts are atomics: Unpin is
// lock-free, and eviction (which runs under the latch) only removes
// frames whose pin count is zero. A file-backed miss reads the page with
// the latch released (see Fetch). File growth (Allocate) serializes on a
// dedicated allocation latch; free-list transactions, and the temp
// region's free list, serialize on flMu.
type Pager struct {
	file *os.File // nil for in-memory databases

	// mu is the pool latch: it guards frames, the LRU list, stats and
	// evictGen, and the appends to mem and temp.
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*frame
	lruHead  *frame // most recently used
	lruTail  *frame // least recently used
	stats    PagerStats
	// evictGen counts eviction write-backs. Fetch's latch-free file read
	// snapshots it to detect a write-back that overlapped the read (see
	// Fetch).
	evictGen uint64

	// mem is the in-memory backing store when file == nil: every page
	// ever allocated, indexed by ID. The frames are the store — a
	// resident page is the same *Page as mem[id], so a page exists once
	// and write-back only clears Dirty; a miss re-installs mem[id]. The
	// slice is appended to, and read by a miss, under mu; the pages
	// themselves follow the pin and latch rules of any frame.
	mem []*Page

	// temp is the temp region's store in both modes, page TempBase+i at
	// temp[i], kept like mem. tempCount is its size, read lock-free by
	// Fetch's bounds check like pageCount.
	temp      []*Page
	tempCount atomic.Uint32

	// pageCount is read lock-free by Fetch's bounds check; Allocate
	// publishes it only after the backing store has grown.
	pageCount atomic.Uint32

	// allocMu serializes file growth and page-ID assignment of a
	// file-backed pager.
	allocMu sync.Mutex

	hasSuper atomic.Bool // page 0 is a superblock (set by EnsureSuperblock)

	// flMu serializes whole free-list transactions (pop in
	// AllocateReusable, push in Free), which span several page
	// fetches and so cannot rely on the pool latch alone. Always
	// acquired before the pool latch. It also guards the temp region's
	// free list, which lives here rather than on the superblock: tempFree
	// is its head and tempFreeN its length.
	flMu      sync.Mutex
	tempFree  PageID
	tempFreeN int
}

// PagerStats are cumulative counters for buffer-pool activity.
type PagerStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Writes    int64
}

// Stats returns a snapshot of the buffer-pool counters. Safe to call
// while other goroutines use the pager.
func (p *Pager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

type frame struct {
	page       *Page
	prev, next *frame
}

// DefaultPoolPages is the default buffer-pool capacity (pages).
const DefaultPoolPages = 1024

// OpenPager opens (creating if necessary) a file-backed pager. poolPages
// of 0 selects DefaultPoolPages.
func OpenPager(path string, poolPages int) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, st.Size())
	}
	p := newPager(poolPages)
	p.file = f
	p.pageCount.Store(uint32(st.Size() / PageSize))
	return p, nil
}

// NewMemPager returns a pager backed by process memory. Used for
// in-memory databases and most benchmarks (the paper's relative results
// do not depend on durable storage).
func NewMemPager(poolPages int) *Pager {
	return newPager(poolPages)
}

func newPager(poolPages int) *Pager {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	return &Pager{
		capacity: poolPages,
		frames:   make(map[PageID]*frame, poolPages),
		tempFree: InvalidPageID,
	}
}

// PageCount returns the number of allocated pages outside the temp
// region: the pages of the file, for a file-backed pager.
func (p *Pager) PageCount() PageID {
	return PageID(p.pageCount.Load())
}

// TempBase is the first page ID of the temp region. Temp heaps take
// their pages from there (AllocateTemp), and the region lives in memory
// in both modes: a temp page never extends, reads or writes the file,
// so a database file holds only the superblock, the catalog, the stored
// tables and their free list. The pool caches temp pages like any
// other, and counts their traffic in the same counters.
const TempBase = PageID(1 << 31)

// TempPages returns the temp region's size: the most temp pages ever
// allocated at once.
func (p *Pager) TempPages() int { return int(p.tempCount.Load()) }

// TempFreePages returns the number of pages on the temp region's free
// list. It equals TempPages when no temp heap lives.
func (p *Pager) TempFreePages() int {
	p.flMu.Lock()
	defer p.flMu.Unlock()
	return p.tempFreeN
}

// Allocate creates a new zero page and returns it pinned.
func (p *Pager) Allocate() (*Page, error) {
	pg := &Page{}
	pg.Init()
	pg.pins.Store(1)
	if p.file != nil {
		//dkblint:locksafe file growth must be atomic with the page-count publish; allocMu is a leaf lock no reader path takes
		p.allocMu.Lock()
		id := PageID(p.pageCount.Load())
		if err := p.file.Truncate((int64(id) + 1) * PageSize); err != nil {
			p.allocMu.Unlock()
			return nil, fmt.Errorf("storage: grow file: %w", err)
		}
		pg.ID = id
		// Publish the count only after the file covers the page, so a
		// concurrent Fetch that passes the bounds check can always read.
		p.pageCount.Store(uint32(id) + 1)
		p.allocMu.Unlock()
	}
	//dkblint:locksafe install may evict a dirty victim; its write-back must finish before the frame vanishes (see evictOne)
	p.mu.Lock()
	if p.file == nil {
		pg.ID = PageID(len(p.mem))
		p.mem = append(p.mem, pg)
		p.pageCount.Store(uint32(len(p.mem)))
	}
	p.install(pg)
	p.mu.Unlock()
	return pg, nil
}

// AllocateTemp returns a pinned, freshly initialized page of the temp
// region, preferring the temp free list over growing the region.
func (p *Pager) AllocateTemp() (*Page, error) {
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the chain's page fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	if head := p.tempFree; head != InvalidPageID {
		pg, err := p.Fetch(head)
		if err != nil {
			return nil, err
		}
		p.tempFree = pg.Next()
		p.tempFreeN--
		pg.Init() // keeps ID, clears contents
		return pg, nil
	}
	pg := &Page{}
	pg.Init()
	pg.pins.Store(1)
	//dkblint:locksafe install may evict a dirty victim; its write-back must finish before the frame vanishes (see evictOne)
	p.mu.Lock()
	pg.ID = TempBase + PageID(len(p.temp))
	p.temp = append(p.temp, pg)
	p.tempCount.Store(uint32(len(p.temp)))
	p.install(pg)
	p.mu.Unlock()
	return pg, nil
}

// allocated reports whether id names an allocated page of either
// region.
func (p *Pager) allocated(id PageID) bool {
	if id >= TempBase {
		return uint32(id-TempBase) < p.tempCount.Load()
	}
	return uint32(id) < p.pageCount.Load()
}

// stored returns the one *Page of an in-memory store: a temp page, or
// any page of an in-memory pager. Caller holds the pool latch.
func (p *Pager) stored(id PageID) *Page {
	if id >= TempBase {
		return p.temp[id-TempBase]
	}
	return p.mem[id]
}

// Fetch returns the page pinned; the caller must Unpin it.
//
// In memory, and for a temp page in both modes, a miss re-installs the
// page's one *Page from the store under the pool latch: nothing is read
// or copied, so nothing can tear.
//
// A file-backed miss reads the page into a new buffer with the latch
// released, so a slow disk read never blocks hits. Correctness of the
// latch-free read: the only writer of a page's on-disk bytes while
// readers are active is eviction write-back, which runs under the latch
// and bumps evictGen before the frame disappears. If evictGen is
// unchanged between dropping the latch and re-taking it, no write-back
// overlapped our read and the copy is intact; otherwise the copy may be
// torn and the read retries. A racing Fetch of the same page that
// installs first wins — the re-check turns our miss into a hit on its
// frame.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	if !p.allocated(id) {
		return nil, fmt.Errorf("storage: fetch of unallocated page %d (have %d, and %d temp)", id, p.PageCount(), p.TempPages())
	}
	//dkblint:locksafe eviction write-back must finish before the victim frame vanishes; the common miss path reads with the latch released
	p.mu.Lock()
	if pg := p.hit(id); pg != nil {
		p.mu.Unlock()
		return pg, nil
	}
	p.stats.Misses++
	if p.file == nil || id >= TempBase {
		pg := p.stored(id)
		pg.pins.Store(1)
		p.install(pg)
		p.mu.Unlock()
		return pg, nil
	}
	for {
		gen := p.evictGen
		p.mu.Unlock()
		pg := &Page{ID: id, Data: new([PageSize]byte)}
		if err := p.readPage(id, pg.Data[:]); err != nil {
			return nil, err
		}
		pg.spaceInfo() // while the page is still private to this call
		//dkblint:locksafe install may evict a dirty victim; its write-back must finish before the frame vanishes (see evictOne)
		p.mu.Lock()
		if hit := p.hit(id); hit != nil {
			p.mu.Unlock()
			return hit, nil
		}
		if p.evictGen != gen {
			// A write-back ran while the latch was down; our copy may
			// be torn. Retry the read under a fresh generation.
			continue
		}
		pg.pins.Store(1)
		p.install(pg)
		p.mu.Unlock()
		return pg, nil
	}
}

// hit pins and touches a resident page, counting the hit; nil if the
// page is not resident. Caller holds the pool latch.
func (p *Pager) hit(id PageID) *Page {
	fr, ok := p.frames[id]
	if !ok {
		return nil
	}
	p.stats.Hits++
	fr.page.pins.Add(1)
	p.touch(fr)
	return fr.page
}

// Unpin releases a pin taken by Fetch or Allocate. It is lock-free: the
// pin count is atomic, and eviction re-checks it under the pool latch.
func (p *Pager) Unpin(pg *Page) {
	for {
		n := pg.pins.Load()
		if n <= 0 {
			return
		}
		if pg.pins.CompareAndSwap(n, n-1) {
			return
		}
	}
}

// install places a page in the pool, evicting if needed. Caller holds
// the pool latch.
func (p *Pager) install(pg *Page) {
	for len(p.frames) >= p.capacity {
		if !p.evictOne() {
			// Everything is pinned; run over capacity rather than fail.
			break
		}
	}
	fr := &frame{page: pg}
	p.frames[pg.ID] = fr
	p.pushFront(fr)
}

// evictOne writes back and drops the least recently used unpinned page.
// Caller holds the pool latch, which excludes new pins: a page observed
// unpinned here cannot gain a pin mid-eviction.
func (p *Pager) evictOne() bool {
	for fr := p.lruTail; fr != nil; fr = fr.prev {
		if fr.page.pins.Load() > 0 {
			continue
		}
		if fr.page.Dirty {
			p.evictGen++
			if err := p.writePage(fr.page); err != nil {
				// Eviction write failures are unrecoverable mid-flight;
				// keep the page resident and report pressure by refusing.
				return false
			}
		}
		p.remove(fr)
		delete(p.frames, fr.page.ID)
		p.stats.Evictions++
		return true
	}
	return false
}

// readPage reads a page from the file into buf.
func (p *Pager) readPage(id PageID, buf []byte) error {
	_, err := p.file.ReadAt(buf, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// writePage writes a dirty page back and counts the write. In memory,
// and for a temp page, the page is its own store, so the write only
// marks it clean; it is still counted, so an in-memory pager's counters
// equal a file pager's. Caller holds the pool latch.
func (p *Pager) writePage(pg *Page) error {
	p.stats.Writes++
	if p.file != nil && pg.ID < TempBase {
		if _, err := p.file.WriteAt(pg.Data[:], int64(pg.ID)*PageSize); err != nil {
			return fmt.Errorf("storage: write page %d: %w", pg.ID, err)
		}
	}
	pg.Dirty = false
	return nil
}

// Flush writes all dirty resident pages to the backing store.
func (p *Pager) Flush() error {
	//dkblint:locksafe flush runs on serialized commit/close paths; the latch pins the dirty set against concurrent eviction
	p.mu.Lock()
	for _, fr := range p.frames {
		if fr.page.Dirty {
			if err := p.writePage(fr.page); err != nil {
				p.mu.Unlock()
				return err
			}
		}
	}
	p.mu.Unlock()
	if p.file != nil {
		if err := p.file.Sync(); err != nil {
			return fmt.Errorf("storage: sync: %w", err)
		}
	}
	return nil
}

// Close flushes and releases the backing store.
func (p *Pager) Close() error {
	if err := p.Flush(); err != nil {
		return err
	}
	if p.file != nil {
		err := p.file.Close()
		p.file = nil
		return err
	}
	return nil
}

// --- LRU list maintenance (caller holds the pool latch) ---

func (p *Pager) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = p.lruHead
	if p.lruHead != nil {
		p.lruHead.prev = fr
	}
	p.lruHead = fr
	if p.lruTail == nil {
		p.lruTail = fr
	}
}

func (p *Pager) remove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		p.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		p.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (p *Pager) touch(fr *frame) {
	p.remove(fr)
	p.pushFront(fr)
}
