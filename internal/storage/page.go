// Package storage implements the testbed's page-based storage engine:
// fixed-size slotted pages, heap files addressed by record ID, and a
// buffer pool with LRU eviction. The paper's DBMS
// layer is a commercial relational system; this package supplies the
// equivalent storage substrate so that the engine above it has realistic
// cost structure (page-at-a-time I/O, slot indirection, free-space
// management).
package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// PageSize is the size of every page in bytes. 4 KiB matches common
// database practice and keeps the slot directory arithmetic simple.
const PageSize = 4096

// PageID identifies a page within a single file, starting at 0, or,
// from TempBase up, a page of the pager's in-memory temp region.
type PageID uint32

// InvalidPageID marks "no page" in page-header links.
const InvalidPageID = PageID(0xFFFFFFFF)

// Slotted page layout:
//
//	offset 0:  uint32 next page ID (the free list's link)
//	offset 4:  uint16 slot count
//	offset 6:  uint16 written as pageHdrSize by Init and never read; the
//	           page's free space is derived from the slot directory and
//	           cached beside the buffer (pageSpace), so page images stay
//	           what they always were
//	offset 8:  slot directory, 4 bytes per slot:
//	           uint16 record offset (0xFFFF = dead slot), uint16 length
//	records grow downward from PageSize.
const (
	pageHdrNext      = 0
	pageHdrSlotCount = 4
	pageHdrFreePtr   = 6
	pageHdrSize      = 8
	slotSize         = 4
	deadSlotOffset   = 0xFFFF
	// maxSlots is how many directory entries fit on a page; a larger
	// count in the header is corruption.
	maxSlots = (PageSize - pageHdrSize) / slotSize
)

// MaxRecordSize is the largest record a page can hold.
const MaxRecordSize = PageSize - pageHdrSize - slotSize

// Page is a small header (ID, pins, dirty flag, free-space cache) beside
// a separately allocated PageSize-byte buffer, with slotted-record
// accessors. Keeping the buffer out of the header makes it an exact
// 4 KiB allocation — header and buffer take 4 160 bytes, where an
// embedded array would put each Page in the 4 864-byte size class — and
// lets an in-memory pager keep each page once: its store is the pages
// themselves (see Pager.mem).
//
// A Page is not safe for concurrent mutation: concurrent readers may
// share a pinned page, but anyone mutating a page must hold a pin and be
// the only writer (the engine's upper layers guarantee this: updates run
// exclusively, and concurrent queries only write session-private temp
// tables). The pin count is atomic so Unpin is lock-free and eviction
// can test it under the pool latch alone.
type Page struct {
	ID    PageID
	Data  *[PageSize]byte
	Dirty bool
	pins  atomic.Int32

	space pageSpace
}

// pageSpace caches, beside the page buffer, what FreeSpace and Insert
// need from the slot directory, so neither walks it: Insert and Delete
// keep it current in O(1). It is derived state — nothing of it is
// stored in Data — and is built by one walk of the directory when the
// pager reads the page from its file (an in-memory page keeps its cache
// across eviction, since its bytes never leave it), and again the first
// time a writer needs it after the page was compacted or lost its
// lowest record. Only the page's single writer changes it; readers (Record,
// SlotCount, LiveRecords) never do.
type pageSpace struct {
	known bool
	low   int // lowest offset of any live record; PageSize when none
	dead  int // dead slots in the directory
	// firstDead is a lower bound on the number of the first dead slot
	// (meaningful while dead > 0); Insert reuses that slot.
	firstDead int
}

// Init formats the page as an empty slotted page, allocating its buffer
// if it has none and zeroing it in place otherwise.
func (p *Page) Init() {
	if p.Data == nil {
		p.Data = new([PageSize]byte)
	} else {
		*p.Data = [PageSize]byte{}
	}
	p.SetNext(InvalidPageID)
	p.setSlotCount(0)
	binary.BigEndian.PutUint16(p.Data[pageHdrFreePtr:], pageHdrSize)
	p.space = pageSpace{known: true, low: PageSize}
	p.Dirty = true
}

// Next returns the chained page ID stored in the header.
func (p *Page) Next() PageID {
	return PageID(binary.BigEndian.Uint32(p.Data[pageHdrNext:]))
}

// SetNext stores the chained page ID.
func (p *Page) SetNext(id PageID) {
	binary.BigEndian.PutUint32(p.Data[pageHdrNext:], uint32(id))
	p.Dirty = true
}

// SlotCount returns the number of slots, live or dead.
func (p *Page) SlotCount() int {
	return int(binary.BigEndian.Uint16(p.Data[pageHdrSlotCount:]))
}

func (p *Page) setSlotCount(n int) {
	binary.BigEndian.PutUint16(p.Data[pageHdrSlotCount:], uint16(n))
}

// slots is SlotCount bounded by what a page can hold, for walks that
// must survive a corrupt header.
func (p *Page) slots() int {
	return min(p.SlotCount(), maxSlots)
}

func (p *Page) slot(i int) (off, length int) {
	base := pageHdrSize + i*slotSize
	off = int(binary.BigEndian.Uint16(p.Data[base:]))
	length = int(binary.BigEndian.Uint16(p.Data[base+2:]))
	return off, length
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHdrSize + i*slotSize
	binary.BigEndian.PutUint16(p.Data[base:], uint16(off))
	binary.BigEndian.PutUint16(p.Data[base+2:], uint16(length))
	p.Dirty = true
}

// spaceInfo returns the page's free-space cache, building it from the
// slot directory if it is not current.
func (p *Page) spaceInfo() *pageSpace {
	sp := &p.space
	if !sp.known {
		*sp = p.scanSpace()
	}
	return sp
}

// scanSpace derives the free-space cache from the slot directory.
func (p *Page) scanSpace() pageSpace {
	sp := pageSpace{known: true, low: PageSize}
	for i := p.slots() - 1; i >= 0; i-- {
		off, _ := p.slot(i)
		switch {
		case off == deadSlotOffset:
			sp.dead++
			sp.firstDead = i
		case off < sp.low:
			sp.low = off
		}
	}
	return sp
}

// fits is HasRoom for a page that other versions share and their
// readers read: it reads the free-space cache but builds none.
func (p *Page) fits(n int) bool {
	sp := p.space
	if !sp.known {
		sp = p.scanSpace()
	}
	return sp.low-(pageHdrSize+p.SlotCount()*slotSize)-slotSize >= n
}

// FreeSpace returns the bytes available for a new record including its
// slot directory entry. Like Insert it belongs to the page's writer.
func (p *Page) FreeSpace() int { return max(p.room(), 0) }

// room is the gap between the slot directory, grown by one entry, and
// the lowest record; negative when not even the entry fits.
func (p *Page) room() int {
	return p.spaceInfo().low - (pageHdrSize + p.SlotCount()*slotSize) - slotSize
}

// HasRoom reports whether a record of n bytes fits on this page. An
// empty record still needs its directory entry.
func (p *Page) HasRoom(n int) bool { return p.room() >= n }

// Insert stores a record and returns its slot number: the first dead
// slot if there is one, else a new slot. The record goes directly below
// the lowest live record.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	if !p.HasRoom(len(rec)) {
		return 0, fmt.Errorf("storage: page %d full", p.ID)
	}
	sp := p.spaceInfo()
	newLow := sp.low - len(rec)
	slotNo := p.SlotCount()
	if sp.dead > 0 {
		slotNo = sp.firstDead
		for off, _ := p.slot(slotNo); off != deadSlotOffset; off, _ = p.slot(slotNo) {
			slotNo++
		}
		sp.dead--
		sp.firstDead = slotNo + 1
	} else {
		p.setSlotCount(slotNo + 1)
	}
	copy(p.Data[newLow:newLow+len(rec)], rec)
	p.setSlot(slotNo, newLow, len(rec))
	sp.low = newLow
	return slotNo, nil
}

// Record returns the bytes of the record in the given slot, or nil if
// the slot is dead, out of range or (on a corrupt page) points outside
// the page. The returned slice aliases the page buffer; callers must
// copy before the page can be evicted.
func (p *Page) Record(slotNo int) []byte {
	if slotNo < 0 || slotNo >= p.slots() {
		return nil
	}
	off, length := p.slot(slotNo)
	if off == deadSlotOffset || off+length > PageSize {
		return nil
	}
	return p.Data[off : off+length]
}

// Delete marks the slot dead. The space is reclaimed lazily by Compact.
func (p *Page) Delete(slotNo int) error {
	if slotNo < 0 || slotNo >= p.slots() {
		return fmt.Errorf("storage: delete of invalid slot %d on page %d", slotNo, p.ID)
	}
	off, _ := p.slot(slotNo)
	if off == deadSlotOffset {
		return fmt.Errorf("storage: double delete of slot %d on page %d", slotNo, p.ID)
	}
	p.setSlot(slotNo, deadSlotOffset, 0)
	if sp := &p.space; sp.known {
		if off == sp.low {
			// The lowest record went, and which is lowest now takes a
			// walk: left to the next spaceInfo.
			sp.known = false
		} else {
			if sp.dead == 0 || slotNo < sp.firstDead {
				sp.firstDead = slotNo
			}
			sp.dead++
		}
	}
	return nil
}

// LiveRecords returns the number of live records on the page.
func (p *Page) LiveRecords() int {
	if p.space.known {
		return p.SlotCount() - p.space.dead
	}
	n := 0
	for i := 0; i < p.slots(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset {
			n++
		}
	}
	return n
}

// Compact rewrites the record area to squeeze out dead space, preserving
// slot numbers of live records. It works from a copy of the page on the
// stack, and allocates nothing.
func (p *Page) Compact() {
	old := *p.Data
	top := PageSize
	for i := 0; i < p.SlotCount(); i++ {
		off, length := p.slot(i)
		if off == deadSlotOffset {
			continue
		}
		top -= length
		copy(p.Data[top:top+length], old[off:off+length])
		p.setSlot(i, top, length)
	}
	// Trim trailing dead slots.
	n := p.SlotCount()
	for n > 0 {
		if off, _ := p.slot(n - 1); off != deadSlotOffset {
			break
		}
		n--
	}
	p.setSlotCount(n)
	p.space.known = false
	p.Dirty = true
}
