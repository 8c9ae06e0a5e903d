package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Pager provides page-granular access to a backing store — either a file
// on disk or an anonymous in-memory store — through a sharded buffer
// pool. All tables and indexes of one database share one Pager
// (single-file database layout); temp tables' pages live in its
// in-memory temp region (TempBase) in both modes.
//
// Concurrency model: pages are striped across lock-striped shards by
// PageID, each shard owning its own frame table, LRU list and traffic
// counters, so concurrent Fetch/Unpin of pages in different shards never
// contend on a common latch. Pin counts are atomics: Unpin is lock-free,
// and eviction (which runs under the owning shard's latch) only removes
// frames whose pin count is zero. Page growth (Allocate) serializes on a
// dedicated allocation latch; free-list transactions, and the temp
// region's growth (AllocateTemp), serialize on flMu.
type Pager struct {
	file *os.File // nil for in-memory databases

	// mem is the in-memory backing store when file == nil: every page
	// ever allocated, indexed by ID. The frames are the store — a
	// resident page is the same *Page as mem[id], so a page exists once
	// and write-back only clears Dirty; a miss re-installs mem[id]. The
	// slice is guarded by memMu only because Allocate's append may
	// relocate it under a concurrent miss; the pages themselves follow
	// the pin and shard-latch rules of any frame.
	mem   []*Page
	memMu sync.RWMutex

	// temp is the temp region's store in both modes, page TempBase+i at
	// temp[i], kept like mem and guarded by memMu with it. tempCount is
	// its size, read lock-free by Fetch's bounds check like pageCount.
	temp      []*Page
	tempCount atomic.Uint32

	// pageCount is read lock-free by Fetch's bounds check; Allocate
	// publishes it only after the backing store has grown.
	pageCount atomic.Uint32

	// allocMu serializes store growth (file truncate / mem append) and
	// page-ID assignment.
	allocMu sync.Mutex

	hasSuper atomic.Bool // page 0 is a superblock (set by EnsureSuperblock)

	// flMu serializes whole free-list transactions (pop in
	// AllocateReusable, push in FreeChain), which span several page
	// fetches and so cannot rely on the shard latches alone. Always
	// acquired before any shard latch. It also guards the temp region's
	// free list, which lives here rather than on the superblock: tempFree
	// is its head and tempFreeN its length.
	flMu      sync.Mutex
	tempFree  PageID
	tempFreeN int

	shards []shard
	mask   uint32 // len(shards)-1; shards is a power of two
}

// shard is one stripe of the buffer pool: a frame table with its own
// latch, LRU list, capacity share and counters.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*frame
	lruHead  *frame // most recently used
	lruTail  *frame // least recently used
	stats    PagerStats
	// evictGen counts eviction write-backs in this stripe. Fetch's
	// latch-free file read snapshots it to detect a write-back that
	// overlapped the read (see Fetch).
	evictGen uint64
}

// PagerStats are cumulative counters for buffer-pool activity,
// aggregated across shards by Stats().
type PagerStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Writes    int64
}

// Stats returns a snapshot of the buffer-pool counters summed over all
// shards. Safe to call while other goroutines use the pager; the sum is
// not a single atomic cut across shards, which is fine for monitoring.
func (p *Pager) Stats() PagerStats {
	var out PagerStats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Evictions += sh.stats.Evictions
		out.Writes += sh.stats.Writes
		sh.mu.Unlock()
	}
	return out
}

// ShardStats returns a per-shard snapshot of the buffer-pool counters,
// indexed by stripe. Monitoring uses it to spot skewed stripes (one hot
// page chain hammering a single latch); Stats() remains the aggregate.
func (p *Pager) ShardStats() []PagerStats {
	out := make([]PagerStats, len(p.shards))
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
	}
	return out
}

type frame struct {
	page       *Page
	prev, next *frame
}

// DefaultPoolPages is the default buffer-pool capacity (pages).
const DefaultPoolPages = 1024

// maxShards caps the stripe count; beyond ~16 ways the shard latches
// stop being the bottleneck and the map/LRU bookkeeping dominates.
const maxShards = 16

// minShardPages is the smallest per-shard capacity worth striping for:
// smaller pools stay single-sharded so tiny test pools keep a usable
// LRU instead of thrashing one-frame stripes.
const minShardPages = 4

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
	n := 1
	for n < maxShards && (n*2)*minShardPages <= poolPages {
		n *= 2
	}
	p := &Pager{shards: make([]shard, n), mask: uint32(n - 1), tempFree: InvalidPageID}
	base, extra := poolPages/n, poolPages%n
	for i := range p.shards {
		cap := base
		if i < extra {
			cap++
		}
		p.shards[i] = shard{
			capacity: cap,
			frames:   make(map[PageID]*frame, cap),
		}
	}
	return p
}

// shardOf returns the stripe owning the page.
func (p *Pager) shardOf(id PageID) *shard {
	return &p.shards[uint32(id)&p.mask]
}

// Shards returns the stripe count (diagnostics and tests).
func (p *Pager) Shards() int { return len(p.shards) }

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
	//dkblint:locksafe file growth must be atomic with the page-count publish; allocMu is a leaf lock no reader path takes
	p.allocMu.Lock()
	id := PageID(p.pageCount.Load())
	pg.ID = id
	if p.file == nil {
		p.memMu.Lock()
		p.mem = append(p.mem, pg)
		p.memMu.Unlock()
	} else {
		if err := p.file.Truncate((int64(id) + 1) * PageSize); err != nil {
			p.allocMu.Unlock()
			return nil, fmt.Errorf("storage: grow file: %w", err)
		}
	}
	// Publish the count only after the backing store covers the page, so
	// a concurrent Fetch that passes the bounds check can always read.
	p.pageCount.Store(uint32(id) + 1)
	p.allocMu.Unlock()
	p.installNew(pg)
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
	p.memMu.Lock()
	pg.ID = TempBase + PageID(len(p.temp))
	p.temp = append(p.temp, pg)
	p.tempCount.Store(uint32(len(p.temp)))
	p.memMu.Unlock()
	p.installNew(pg)
	return pg, nil
}

// installNew places a freshly allocated, pinned page in its shard.
func (p *Pager) installNew(pg *Page) {
	sh := p.shardOf(pg.ID)
	//dkblint:locksafe install may evict a dirty victim; its write-back must finish before the frame vanishes (see evictOne)
	sh.mu.Lock()
	sh.install(p, pg)
	sh.mu.Unlock()
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
// any page of an in-memory pager.
func (p *Pager) stored(id PageID) *Page {
	p.memMu.RLock()
	defer p.memMu.RUnlock()
	if id >= TempBase {
		return p.temp[id-TempBase]
	}
	return p.mem[id]
}

// Fetch returns the page pinned; the caller must Unpin it.
//
// In memory, and for a temp page in both modes, a miss re-installs the
// page's one *Page from the store under the shard latch: nothing is
// read or copied, so nothing can tear.
//
// A file-backed miss reads the page into a new buffer with the shard
// latch released, so a slow disk read never blocks hits on the same
// stripe. Correctness of the latch-free read: the only writer of a
// page's on-disk bytes while readers are active is eviction write-back,
// which runs under this shard's latch and bumps evictGen before the
// frame disappears. If evictGen is unchanged between dropping the latch
// and re-taking it, no write-back overlapped our read and the copy is
// intact; otherwise the copy may be torn and the read retries. A racing
// Fetch of the same page that installs first wins — the re-check turns
// our miss into a hit on its frame.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	if !p.allocated(id) {
		return nil, fmt.Errorf("storage: fetch of unallocated page %d (have %d, and %d temp)", id, p.PageCount(), p.TempPages())
	}
	sh := p.shardOf(id)
	//dkblint:locksafe eviction write-back must finish before the victim frame vanishes; the common miss path reads with the latch released
	sh.mu.Lock()
	if fr, ok := sh.frames[id]; ok {
		sh.stats.Hits++
		fr.page.pins.Add(1)
		sh.touch(fr)
		sh.mu.Unlock()
		return fr.page, nil
	}
	sh.stats.Misses++
	if p.file == nil || id >= TempBase {
		pg := p.stored(id)
		pg.pins.Store(1)
		sh.install(p, pg)
		sh.mu.Unlock()
		return pg, nil
	}
	for {
		gen := sh.evictGen
		sh.mu.Unlock()
		pg := &Page{ID: id, Data: new([PageSize]byte)}
		if err := p.readPage(id, pg.Data[:]); err != nil {
			return nil, err
		}
		pg.spaceInfo() // while the page is still private to this call
		//dkblint:locksafe install may evict a dirty victim; its write-back must finish before the frame vanishes (see evictOne)
		sh.mu.Lock()
		if fr, ok := sh.frames[id]; ok {
			sh.stats.Hits++
			fr.page.pins.Add(1)
			sh.touch(fr)
			sh.mu.Unlock()
			return fr.page, nil
		}
		if sh.evictGen != gen {
			// A write-back ran while the latch was down; our copy may
			// be torn. Retry the read under a fresh generation.
			continue
		}
		pg.pins.Store(1)
		sh.install(p, pg)
		sh.mu.Unlock()
		return pg, nil
	}
}

// Unpin releases a pin taken by Fetch or Allocate. It is lock-free: the
// pin count is atomic, and eviction re-checks it under the shard latch.
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

// install places a page in the shard, evicting if needed. Caller holds
// the shard latch.
func (sh *shard) install(p *Pager, pg *Page) {
	for len(sh.frames) >= sh.capacity {
		if !sh.evictOne(p) {
			// Everything is pinned; run over capacity rather than fail.
			break
		}
	}
	fr := &frame{page: pg}
	sh.frames[pg.ID] = fr
	sh.pushFront(fr)
}

// evictOne writes back and drops the least recently used unpinned page.
// Caller holds the shard latch, which excludes new pins on this shard's
// pages: a page observed unpinned here cannot gain a pin mid-eviction.
func (sh *shard) evictOne(p *Pager) bool {
	for fr := sh.lruTail; fr != nil; fr = fr.prev {
		if fr.page.pins.Load() > 0 {
			continue
		}
		if fr.page.Dirty {
			sh.evictGen++
			if err := p.writePage(&sh.stats, fr.page); err != nil {
				// Eviction write failures are unrecoverable mid-flight;
				// keep the page resident and report pressure by refusing.
				return false
			}
		}
		sh.remove(fr)
		delete(sh.frames, fr.page.ID)
		sh.stats.Evictions++
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
// equal a file pager's.
func (p *Pager) writePage(stats *PagerStats, pg *Page) error {
	stats.Writes++
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
	for i := range p.shards {
		sh := &p.shards[i]
		//dkblint:locksafe flush runs on serialized commit/close paths; the latch pins the dirty set against concurrent eviction
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.page.Dirty {
				if err := p.writePage(&sh.stats, fr.page); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
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

// --- LRU list maintenance (caller holds the shard latch) ---

func (sh *shard) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = fr
	}
	sh.lruHead = fr
	if sh.lruTail == nil {
		sh.lruTail = fr
	}
}

func (sh *shard) remove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		sh.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		sh.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (sh *shard) touch(fr *frame) {
	sh.remove(fr)
	sh.pushFront(fr)
}
