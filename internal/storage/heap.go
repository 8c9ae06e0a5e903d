package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// RID identifies a record within a heap file: the position of its page
// in the heap's directory, and its slot on that page. A page keeps its
// position for the life of the heap, across the versions that copy it
// (Fork), so an index posting stays valid in every version that shares
// the page or a copy of it.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders "page:slot" for diagnostics.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// HeapFile is an unordered collection of records stored in slotted
// pages inside a Pager, found through its directory: the IDs of its
// pages, by position. An empty heap holds no page; an insert that finds
// no room appends one.
//
// A heap version made by Fork shares its predecessor's pages: its
// directory starts as the predecessor's, and the first write to a page
// the two share copies it to a page of its own, which takes its place
// at the same position. The predecessor is not written again and reads
// as it did; which of its pages it may free, and when, is its owner's
// business (Release). A heap that is never forked owns every page it
// names and writes them in place.
type HeapFile struct {
	pager *Pager
	dir   []PageID
	// inline holds a small directory, so a heap of a few pages (a temp
	// table's, typically) needs no allocation beyond itself. Three
	// entries and last fill 16 bytes, which keeps the struct at 112, a
	// size class below 128.
	inline [3]PageID
	// last is the position that last took an insert or lost a record,
	// where the next insert looks for room first.
	last uint32

	// stats counts physical traffic on this file: own, or the counters
	// of the file it replaces (Fork). The fields are atomics because
	// scans run concurrently (the server admits parallel readers) while
	// a metrics collector may snapshot at any moment.
	stats *heapCounters
	own   heapCounters

	st *storedHeap // nil for a temp heap, whose pages are the temp region's
}

// storedHeap is what only a heap outside the temp region keeps: the
// version it shares pages with, and its stored directory.
type storedHeap struct {
	// base is the directory of the version this one was forked from: a
	// page named at the same position in both is shared, and written
	// only through a copy. nil when nothing is shared.
	base []PageID
	// sharedDir is set while dir is base's array: no entry of it may be
	// written in place until it is copied.
	sharedDir bool
	// written counts the pages this version wrote that the version it
	// was forked from does not hold: the copies and the added pages.
	written int
	// changed is set when the directory changes and cleared when
	// AppendDir stores it; from is the lowest position changed since.
	changed bool
	from    int
	// spill are the pages the stored directory spills to (AppendDir).
	spill []PageID
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

// CreateHeap returns a new empty heap file, which holds no page yet.
func CreateHeap(p *Pager) *HeapFile { return newHeap(p, false) }

// CreateTempHeap returns a new empty heap file in the temp region: every
// page it grows by lives in memory and never reaches the file.
func CreateTempHeap(p *Pager) *HeapFile { return newHeap(p, true) }

func newHeap(p *Pager, temp bool) *HeapFile {
	h := &HeapFile{pager: p}
	if !temp {
		h.st = &storedHeap{}
	}
	h.dir = h.inline[:0]
	h.stats = &h.own
	return h
}

// Fork returns a version of h, a heap outside the temp region, that
// shares h's pages and counts its traffic in h's counters, so a table's
// counters never restart at a copy. h itself must not be written
// afterwards; the fork takes over the pages h's stored directory spills
// to. Fork reads no page.
func (h *HeapFile) Fork() *HeapFile {
	n := len(h.dir)
	f := &HeapFile{pager: h.pager, dir: h.dir[:n:n], last: h.last, stats: h.stats,
		st: &storedHeap{base: h.dir[:n:n], sharedDir: true, spill: h.st.spill}}
	h.st.spill = nil
	return f
}

// Written returns the pages this version wrote that the version it was
// forked from does not hold: copies of shared pages and added pages. A
// temp heap counts none.
func (h *HeapFile) Written() int {
	if h.st == nil {
		return 0
	}
	return h.st.written
}

// Len returns the number of pages in the directory.
func (h *HeapFile) Len() int { return len(h.dir) }

// shared reports whether the page at pos is the predecessor's too.
func (h *HeapFile) shared(pos int) bool {
	return h.st != nil && pos < len(h.st.base) && h.dir[pos] == h.st.base[pos]
}

// fetch pins the page at directory position pos.
func (h *HeapFile) fetch(pos int) (*Page, error) {
	if pos >= len(h.dir) {
		return nil, fmt.Errorf("storage: page position %d past the directory's %d", pos, len(h.dir))
	}
	return h.pager.Fetch(h.dir[pos])
}

// setDir names id at pos, first copying the directory if it is still
// the predecessor's.
func (h *HeapFile) setDir(pos int, id PageID) {
	if h.st.sharedDir {
		h.dir = append(make([]PageID, 0, len(h.dir)+4), h.dir...)
		h.st.sharedDir = false
	}
	h.dir[pos] = id
	h.touch(pos, true)
}

// touch notes that the directory changed at pos, by a page this
// version wrote when added.
func (h *HeapFile) touch(pos int, added bool) {
	st := h.st
	if st == nil {
		return
	}
	if added {
		st.written++
	}
	if !st.changed || pos < st.from {
		st.from = pos
	}
	st.changed = true
}

// alloc returns a fresh page of the heap's region, pinned.
func (h *HeapFile) alloc() (*Page, error) {
	if h.st == nil {
		return h.pager.AllocateTemp()
	}
	return h.pager.AllocateReusable()
}

// writable returns the page at pos, pinned as pg is, for writing: pg
// itself when this version owns it, else a copy that takes its place at
// pos, pg being unpinned and left as it is to the versions that share
// it.
func (h *HeapFile) writable(pos int, pg *Page) (*Page, error) {
	if !h.shared(pos) {
		return pg, nil
	}
	cp, err := h.alloc()
	if err != nil {
		h.pager.Unpin(pg)
		return nil, err
	}
	*cp.Data = *pg.Data
	cp.space = pg.space
	h.pager.Unpin(pg)
	h.setDir(pos, cp.ID)
	return cp, nil
}

// Insert appends a record and returns its RID. A record no page can
// hold is rejected before the directory is touched.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	h.stats.inserts.Add(1)
	// Try the page that took the last insert, then the pages after it,
	// and append a page when none has room.
	for pos := int(h.last); pos < len(h.dir); pos++ {
		pg, err := h.pager.Fetch(h.dir[pos])
		if err != nil {
			return RID{}, err
		}
		// A shared page's free-space cache is its readers' too: test it
		// without building one.
		room := false
		if h.shared(pos) {
			room = pg.fits(len(rec))
		} else {
			room = pg.HasRoom(len(rec))
		}
		if !room {
			h.pager.Unpin(pg)
			continue
		}
		if pg, err = h.writable(pos, pg); err != nil {
			return RID{}, err
		}
		return h.insertAt(pos, pg, rec)
	}
	pg, err := h.alloc()
	if err != nil {
		return RID{}, err
	}
	h.dir = append(h.dir, pg.ID)
	if h.st != nil {
		h.st.sharedDir = false // a shared directory has no spare capacity: append copied it
	}
	h.touch(len(h.dir)-1, true)
	return h.insertAt(len(h.dir)-1, pg, rec)
}

// insertAt stores rec on pg, the page at pos, and unpins it.
func (h *HeapFile) insertAt(pos int, pg *Page, rec []byte) (RID, error) {
	slot, err := pg.Insert(rec)
	h.pager.Unpin(pg)
	if err != nil {
		return RID{}, err
	}
	h.last = uint32(pos)
	return RID{Page: uint32(pos), Slot: uint16(slot)}, nil
}

// Read calls fn with the record at rid while its page is pinned; rec
// aliases the page buffer and must not be retained. It is an error if
// the slot is dead or out of range.
func (h *HeapFile) Read(rid RID, fn func(rec []byte) error) error {
	h.stats.reads.Add(1)
	pg, err := h.fetch(int(rid.Page))
	if err != nil {
		return err
	}
	defer h.pager.Unpin(pg)
	rec := pg.Record(int(rid.Slot))
	if rec == nil {
		return fmt.Errorf("storage: no record at %s", rid)
	}
	return fn(rec)
}

// Delete removes the record at rid and compacts the page when more than
// half its slots are dead.
func (h *HeapFile) Delete(rid RID) error {
	h.stats.deletes.Add(1)
	pos, slot := int(rid.Page), int(rid.Slot)
	pg, err := h.fetch(pos)
	if err != nil {
		return err
	}
	if pg.Record(slot) == nil {
		h.pager.Unpin(pg)
		return fmt.Errorf("storage: delete of no record at %s", rid)
	}
	if pg, err = h.writable(pos, pg); err != nil {
		return err
	}
	defer h.pager.Unpin(pg)
	if err := pg.Delete(slot); err != nil {
		return err
	}
	if pg.SlotCount() > 0 && pg.LiveRecords()*2 < pg.SlotCount() {
		pg.Compact()
	}
	// A delete opens room; remember this page for future inserts.
	h.last = uint32(pos)
	return nil
}

// ScanPages calls fn with every page of the file in directory order,
// each pinned for the duration of the call. The pass counts one scan,
// then each page and its live records as it reads them. fn reads the
// page's records through Record; what it takes from them it copies or
// decodes before it returns. Returning a non-nil error from fn stops
// the scan.
func (h *HeapFile) ScanPages(fn func(pg *Page) error) error {
	h.stats.scans.Add(1)
	for pos := 0; pos < len(h.dir); pos++ {
		pg, err := h.pager.Fetch(h.dir[pos])
		if err != nil {
			return err
		}
		h.stats.pagesScanned.Add(1)
		h.stats.recsScanned.Add(int64(pg.LiveRecords()))
		err = fn(pg)
		h.pager.Unpin(pg)
		if err != nil {
			return err
		}
	}
	return nil
}

// Scan calls fn for every live record in the file, in directory and
// slot order. The record slice passed to fn aliases the page buffer and
// must not be retained. Returning a non-nil error from fn stops the
// scan.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	pos := uint32(0)
	return h.ScanPages(func(pg *Page) error {
		for s := 0; s < pg.SlotCount(); s++ {
			if rec := pg.Record(s); rec != nil {
				if err := fn(RID{Page: pos, Slot: uint16(s)}, rec); err != nil {
					return err
				}
			}
		}
		pos++
		return nil
	})
}

// Truncate deletes every record and empties the directory: the pages
// this version owns go back to their region's free list, and the ones
// it shares stay with the versions that share them.
func (h *HeapFile) Truncate() error {
	var mine []PageID
	switch {
	case h.st == nil || h.st.base == nil:
		mine = h.dir
	case !h.st.sharedDir:
		for pos, id := range h.dir {
			if !h.shared(pos) {
				mine = append(mine, id)
			}
		}
	}
	err := h.pager.Free(mine)
	h.dir, h.last = h.inline[:0], 0
	if h.st != nil {
		h.st.base, h.st.sharedDir = nil, false
	}
	h.touch(0, false)
	return err
}

// Drop releases every page the file owns, and the pages its stored
// directory spills to, to their free list. The heap must not be used
// afterwards.
func (h *HeapFile) Drop() error {
	err := h.Truncate()
	if h.st != nil {
		if ferr := h.pager.Free(h.st.spill); err == nil {
			err = ferr
		}
		h.st.spill = nil
	}
	return err
}

// Release frees the pages of a version that no reader holds any more:
// those its directory names and next's does not, next being the version
// that replaced it (nil when none did), and the pages its stored
// directory still spills to. A page keeps its position for the life of
// a heap, so the two directories are compared position by position. The
// caller makes sure no older version that shares a page with h is
// still read.
func (h *HeapFile) Release(next *HeapFile) error { return h.release(next, true, true) }

// ReleaseOwn frees the pages Release would that the version wrote
// itself: those it does not share with the version it was forked from.
// No older version names them, so once no reader holds h they are free,
// whatever older versions are still read. ReleaseShared frees the rest
// later: ReleaseOwn and ReleaseShared together are Release.
func (h *HeapFile) ReleaseOwn(next *HeapFile) error { return h.release(next, true, false) }

// ReleaseShared frees the pages Release would that ReleaseOwn does not.
func (h *HeapFile) ReleaseShared(next *HeapFile) error { return h.release(next, false, true) }

// release frees the pages h names and next does not, those h wrote
// itself when own is set and those it shares, and its spill pages, when
// shared is.
func (h *HeapFile) release(next *HeapFile, own, shared bool) error {
	var gone []PageID
	for pos, id := range h.dir {
		if next != nil && pos < len(next.dir) && next.dir[pos] == id {
			continue
		}
		if h.shared(pos) && shared || !h.shared(pos) && own {
			gone = append(gone, id)
		}
	}
	if shared {
		gone = append(gone, h.st.spill...)
	}
	return h.pager.Free(gone)
}

// EachPage calls fn with every page the file holds: its directory's
// pages, then the pages its stored directory spills to.
func (h *HeapFile) EachPage(fn func(id PageID) error) error {
	var spill []PageID
	if h.st != nil {
		spill = h.st.spill
	}
	for _, ids := range [][]PageID{h.dir, spill} {
		for _, id := range ids {
			if err := fn(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- The stored directory ---

// dirInline is how many page IDs the stored form of a directory holds
// itself; a longer directory spills to pages of dirPerPage IDs each,
// and the stored form names those.
const (
	dirInline  = 64
	dirPerPage = MaxRecordSize / 4
)

// DirChanged reports whether the directory of a heap outside the temp
// region changed since AppendDir last stored it.
func (h *HeapFile) DirChanged() bool { return h.st != nil && h.st.changed }

// AppendDir appends the stored form of the directory to buf: the page
// count, the count of pages it spills to, and the page IDs, or, when
// there are more than dirInline, the IDs of the pages it spills to,
// which it first writes — those at or after the lowest position changed
// since the last AppendDir. LoadHeap reads it back. A temp heap has no
// stored directory.
func (h *HeapFile) AppendDir(buf []byte) ([]byte, error) {
	st := h.st
	ids := h.dir
	from := len(h.dir) // the lowest position whose spill page is stale
	if st.changed {
		from = st.from
	}
	if len(h.dir) <= dirInline {
		if err := h.pager.Free(st.spill); err != nil {
			return buf, err
		}
		st.spill = nil
	} else {
		need := (len(h.dir) + dirPerPage - 1) / dirPerPage
		from = min(from, len(st.spill)*dirPerPage) // an added spill page is blank
		for len(st.spill) < need {
			pg, err := h.pager.AllocateReusable()
			if err != nil {
				return buf, err
			}
			st.spill = append(st.spill, pg.ID)
			h.pager.Unpin(pg)
		}
		if err := h.pager.Free(st.spill[need:]); err != nil {
			return buf, err
		}
		st.spill = st.spill[:need]
		var chunk [dirPerPage * 4]byte
		for i := from / dirPerPage; i < need; i++ {
			part := h.dir[i*dirPerPage : min((i+1)*dirPerPage, len(h.dir))]
			rec := chunk[:0]
			for _, id := range part {
				rec = binary.BigEndian.AppendUint32(rec, uint32(id))
			}
			pg, err := h.pager.Fetch(st.spill[i])
			if err != nil {
				return buf, err
			}
			pg.Init()
			_, err = pg.Insert(rec)
			h.pager.Unpin(pg)
			if err != nil {
				return buf, err
			}
		}
		ids = st.spill
	}
	buf = binary.AppendUvarint(buf, uint64(len(h.dir)))
	buf = binary.AppendUvarint(buf, uint64(len(st.spill)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	st.changed = false
	return buf, nil
}

// LoadHeap opens the heap whose directory AppendDir stored at the front
// of stored, and returns the bytes after it.
func LoadHeap(p *Pager, stored []byte) (*HeapFile, []byte, error) {
	corrupt := fmt.Errorf("storage: corrupt heap directory")
	n, sz := binary.Uvarint(stored)
	if sz <= 0 {
		return nil, nil, corrupt
	}
	stored = stored[sz:]
	k, sz := binary.Uvarint(stored)
	if sz <= 0 || n > 1<<31 || k > n {
		return nil, nil, corrupt
	}
	stored = stored[sz:]
	h := newHeap(p, false)
	// Inserts fill the pages in order, so the first one after a reopen
	// looks for room at the tail page, not at every page before it.
	h.last = uint32(max(n, 1) - 1)
	ids := func(b []byte, count uint64) ([]PageID, error) {
		if uint64(len(b)) < 4*count {
			return nil, corrupt
		}
		out := make([]PageID, count)
		for i := range out {
			out[i] = PageID(binary.BigEndian.Uint32(b[4*i:]))
		}
		return out, nil
	}
	if k == 0 {
		dir, err := ids(stored, n)
		if err != nil {
			return nil, nil, err
		}
		h.dir = append(h.dir, dir...)
		return h, stored[4*n:], nil
	}
	spill, err := ids(stored, k)
	if err != nil {
		return nil, nil, err
	}
	h.dir = make([]PageID, 0, n)
	for _, id := range spill {
		pg, err := p.Fetch(id)
		if err != nil {
			return nil, nil, err
		}
		rec := pg.Record(0)
		part, err := ids(rec, uint64(len(rec)/4))
		p.Unpin(pg)
		if err != nil {
			return nil, nil, err
		}
		h.dir = append(h.dir, part...)
	}
	if uint64(len(h.dir)) != n {
		return nil, nil, corrupt
	}
	h.st.spill = spill
	return h, stored[4*k:], nil
}
