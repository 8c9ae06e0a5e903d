package storage

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// RID identifies a record within a heap file: page plus slot.
type RID struct {
	Page PageID
	Slot int
}

// String renders "page:slot" for diagnostics.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile is an unordered collection of records stored in a chain of
// slotted pages inside a Pager. The chain head page ID is the file's
// identity (recorded in the catalog).
type HeapFile struct {
	pager *Pager
	head  PageID
	// lastWithRoom caches the page that most recently accepted an
	// insert, so bulk loads do not rescan the chain.
	lastWithRoom PageID

	// stats counts physical traffic on this file: own, or the counters
	// of the file it replaces (ShareStats). The fields are atomics
	// because scans run concurrently (the server admits parallel readers)
	// while a metrics collector may snapshot at any moment.
	stats *heapCounters
	own   heapCounters
}

// heapCounters is the live (atomic) form of HeapStats.
type heapCounters struct {
	reads        atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	scans        atomic.Int64
	pagesScanned atomic.Int64
	recsScanned  atomic.Int64
}

// HeapStats is a snapshot of one heap file's traffic counters: record
// point reads (Get), inserts, deletes, full-scan passes, and the pages
// and live records those scans visited. The paper reports query costs in
// exactly these physical units, so the executor attaches deltas of this
// snapshot to scan-operator spans.
type HeapStats struct {
	Reads        int64 `json:"reads"`
	Inserts      int64 `json:"inserts"`
	Deletes      int64 `json:"deletes"`
	Scans        int64 `json:"scans"`
	PagesScanned int64 `json:"pages_scanned"`
	RecsScanned  int64 `json:"recs_scanned"`
}

// Stats snapshots the file's traffic counters. Safe to call concurrently
// with any traffic; the snapshot is not a single atomic cut, which is
// fine for monitoring and for per-query deltas (queries that need exact
// deltas run their operators single-threaded).
func (h *HeapFile) Stats() HeapStats {
	return HeapStats{
		Reads:        h.stats.reads.Load(),
		Inserts:      h.stats.inserts.Load(),
		Deletes:      h.stats.deletes.Load(),
		Scans:        h.stats.scans.Load(),
		PagesScanned: h.stats.pagesScanned.Load(),
		RecsScanned:  h.stats.recsScanned.Load(),
	}
}

// Sub returns the counter-by-counter difference s - prev (the traffic
// between two snapshots).
func (s HeapStats) Sub(prev HeapStats) HeapStats {
	return HeapStats{
		Reads:        s.Reads - prev.Reads,
		Inserts:      s.Inserts - prev.Inserts,
		Deletes:      s.Deletes - prev.Deletes,
		Scans:        s.Scans - prev.Scans,
		PagesScanned: s.PagesScanned - prev.PagesScanned,
		RecsScanned:  s.RecsScanned - prev.RecsScanned,
	}
}

// ShareStats makes h count its traffic in prev's counters from now on,
// so a table whose heap is replaced by a copy (a copy-on-write commit)
// keeps counting where it stood. The counters live in the first file of
// the line, which stays reachable through them: a few words, not its
// pages.
func (h *HeapFile) ShareStats(prev *HeapFile) { h.stats = prev.stats }

// Pager returns the pager backing this file (shared by all files of one
// database; used to correlate heap traffic with buffer-pool traffic).
func (h *HeapFile) Pager() *Pager { return h.pager }

// CreateHeap allocates a new empty heap file and returns it.
func CreateHeap(p *Pager) (*HeapFile, error) {
	pg, err := p.AllocateReusable()
	if err != nil {
		return nil, err
	}
	defer p.Unpin(pg)
	return OpenHeap(p, pg.ID), nil
}

// CreateTempHeap allocates a new empty heap file in the temp region. It
// and every page it grows by live in memory and never reach the file.
func CreateTempHeap(p *Pager) (*HeapFile, error) {
	pg, err := p.AllocateTemp()
	if err != nil {
		return nil, err
	}
	defer p.Unpin(pg)
	return OpenHeap(p, pg.ID), nil
}

// OpenHeap reopens an existing heap file by its head page ID.
func OpenHeap(p *Pager, head PageID) *HeapFile {
	h := &HeapFile{pager: p, head: head, lastWithRoom: head}
	h.stats = &h.own
	return h
}

// Head returns the head page ID (the persistent identity of the file).
func (h *HeapFile) Head() PageID { return h.head }

// Insert appends a record and returns its RID. A record no page can
// hold is rejected before the chain is touched.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.stats.inserts.Add(1)
	// Try the cached page first, then walk the chain from it, extending
	// at the tail when no page has room.
	id := h.lastWithRoom
	for {
		pg, err := h.pager.Fetch(id)
		if err != nil {
			return RID{}, err
		}
		if pg.HasRoom(len(rec)) {
			slot, err := pg.Insert(rec)
			h.pager.Unpin(pg)
			if err != nil {
				return RID{}, err
			}
			h.lastWithRoom = id
			return RID{Page: id, Slot: slot}, nil
		}
		next := pg.Next()
		if next == InvalidPageID {
			// Extend the chain from its own region.
			np, err := h.grow()
			if err != nil {
				h.pager.Unpin(pg)
				return RID{}, err
			}
			pg.SetNext(np.ID)
			h.pager.Unpin(pg)
			slot, err := np.Insert(rec)
			h.pager.Unpin(np)
			if err != nil {
				return RID{}, err
			}
			h.lastWithRoom = np.ID
			return RID{Page: np.ID, Slot: slot}, nil
		}
		h.pager.Unpin(pg)
		id = next
	}
}

// grow allocates a page for the chain in the region its head is in.
func (h *HeapFile) grow() (*Page, error) {
	if h.head >= TempBase {
		return h.pager.AllocateTemp()
	}
	return h.pager.AllocateReusable()
}

// Read calls fn with the record at rid while its page is pinned; rec
// aliases the page buffer and must not be retained. It is an error if
// the slot is dead or out of range.
func (h *HeapFile) Read(rid RID, fn func(rec []byte) error) error {
	h.stats.reads.Add(1)
	pg, err := h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pager.Unpin(pg)
	rec := pg.Record(rid.Slot)
	if rec == nil {
		return fmt.Errorf("storage: no record at %s", rid)
	}
	return fn(rec)
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	var out []byte
	err := h.Read(rid, func(rec []byte) error {
		out = bytes.Clone(rec)
		return nil
	})
	return out, err
}

// Delete removes the record at rid and compacts the page when more than
// half its slots are dead.
func (h *HeapFile) Delete(rid RID) error {
	h.stats.deletes.Add(1)
	pg, err := h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pager.Unpin(pg)
	if err := pg.Delete(rid.Slot); err != nil {
		return err
	}
	if pg.SlotCount() > 0 && pg.LiveRecords()*2 < pg.SlotCount() {
		pg.Compact()
	}
	// A delete opens room; remember this page for future inserts.
	h.lastWithRoom = rid.Page
	return nil
}

// ScanPages calls fn with every page of the file in chain order, each
// pinned for the duration of the call: one pass of a PageCursor. fn
// reads the page's records through Record; what it takes from them it
// copies or decodes before it returns. Returning a non-nil error from
// fn stops the scan.
func (h *HeapFile) ScanPages(fn func(pg *Page) error) error {
	c := h.Pages()
	for {
		if more, err := c.Next(fn); !more || err != nil {
			return err
		}
	}
}

// PageCursor reads a heap file's chain a page at a time, on demand: a
// scan pass whose consumer asks for each page once it is done with the
// last. It counts one scan when it is made, then each page and its live
// records as it reads them, and pins a page only for the call that
// reads it.
type PageCursor struct {
	h    *HeapFile
	next PageID
}

// Pages starts a scan pass over the file.
func (h *HeapFile) Pages() PageCursor {
	h.stats.scans.Add(1)
	return PageCursor{h: h, next: h.head}
}

// Next calls fn with the pass's next page, pinned for the duration of
// the call, and moves past it. more is false, and fn not called, once
// the chain is done; after an error the pass is over.
func (c *PageCursor) Next(fn func(pg *Page) error) (more bool, err error) {
	if c.next == InvalidPageID {
		return false, nil
	}
	pg, err := c.h.pager.Fetch(c.next)
	if err != nil {
		c.next = InvalidPageID
		return false, err
	}
	c.h.stats.pagesScanned.Add(1)
	c.h.stats.recsScanned.Add(int64(pg.LiveRecords()))
	err = fn(pg)
	c.next = pg.Next()
	c.h.pager.Unpin(pg)
	if err != nil {
		c.next = InvalidPageID
		return false, err
	}
	return true, nil
}

// Scan calls fn for every live record in the file, in chain order. The
// record slice passed to fn aliases the page buffer and must not be
// retained. Returning a non-nil error from fn stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	return h.ScanPages(func(pg *Page) error {
		for s := 0; s < pg.SlotCount(); s++ {
			if rec := pg.Record(s); rec != nil {
				if err := fn(RID{Page: pg.ID, Slot: s}, rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Count returns the number of live records (full scan).
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) error { n++; return nil })
	return n, err
}

// Truncate deletes every record. The head page survives (it is the
// file's catalog identity); tail pages go back to the pager free list.
func (h *HeapFile) Truncate() error {
	pg, err := h.pager.Fetch(h.head)
	if err != nil {
		return err
	}
	tail := pg.Next()
	pg.Init()
	pg.SetNext(InvalidPageID)
	h.pager.Unpin(pg)
	h.lastWithRoom = h.head
	return h.pager.FreeChain(tail)
}

// Drop releases every page of the file to the pager free list. The heap
// must not be used afterwards.
func (h *HeapFile) Drop() error {
	head := h.head
	h.head = InvalidPageID
	return h.pager.FreeChain(head)
}
