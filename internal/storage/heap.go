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

	// stats counts physical traffic on this file. The fields are atomics
	// because scans run concurrently (the server admits parallel readers)
	// while a metrics collector may snapshot at any moment.
	stats heapCounters
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
	return &HeapFile{pager: p, head: pg.ID, lastWithRoom: pg.ID}, nil
}

// OpenHeap reopens an existing heap file by its head page ID.
func OpenHeap(p *Pager, head PageID) *HeapFile {
	return &HeapFile{pager: p, head: head, lastWithRoom: head}
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
			// Extend the chain.
			np, err := h.pager.AllocateReusable()
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
// pinned for the duration of the call. fn reads the page's records
// through Record; what it takes from them it copies or decodes before
// it returns. Returning a non-nil error from fn stops the scan.
func (h *HeapFile) ScanPages(fn func(pg *Page) error) error {
	h.stats.scans.Add(1)
	// Accumulate locally and publish once: one pair of atomic adds per
	// scan instead of one per page keeps the hot loop unchanged.
	var pages, recs int64
	defer func() {
		h.stats.pagesScanned.Add(pages)
		h.stats.recsScanned.Add(recs)
	}()
	id := h.head
	for id != InvalidPageID {
		pg, err := h.pager.Fetch(id)
		if err != nil {
			return err
		}
		pages++
		recs += int64(pg.LiveRecords())
		err = fn(pg)
		next := pg.Next()
		h.pager.Unpin(pg)
		if err != nil {
			return err
		}
		id = next
	}
	return nil
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
