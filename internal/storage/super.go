package storage

import (
	"encoding/binary"
	"fmt"
)

// Superblock layout (page 0 of every database file):
//
//	offset 0: magic "DKBM"
//	offset 4: uint32 format version
//	offset 8: uint32 free-list head page ID
//	offset 12: uint32 root (catalog heap head) page ID
//
// The free list reuses the page-header next field of the freed pages
// themselves, so freeing a heap chain is O(1) writes per page and
// allocation pops in O(1).
const (
	superMagic   = "DKBM"
	superVersion = 1

	superOffMagic   = 0
	superOffVersion = 4
	superOffFree    = 8
	superOffRoot    = 12
)

// EnsureSuperblock formats page 0 as a superblock on a fresh store, or
// validates an existing one. It returns the root page ID recorded there
// (InvalidPageID on a fresh store).
func (p *Pager) EnsureSuperblock() (PageID, error) {
	if p.PageCount() == 0 {
		pg, err := p.Allocate()
		if err != nil {
			return InvalidPageID, err
		}
		defer p.Unpin(pg)
		if pg.ID != 0 {
			return InvalidPageID, fmt.Errorf("storage: superblock allocated as page %d", pg.ID)
		}
		copy(pg.Data[superOffMagic:], superMagic)
		binary.BigEndian.PutUint32(pg.Data[superOffVersion:], superVersion)
		binary.BigEndian.PutUint32(pg.Data[superOffFree:], uint32(InvalidPageID))
		binary.BigEndian.PutUint32(pg.Data[superOffRoot:], uint32(InvalidPageID))
		pg.Dirty = true
		p.setHasSuper()
		return InvalidPageID, nil
	}
	pg, err := p.Fetch(0)
	if err != nil {
		return InvalidPageID, err
	}
	defer p.Unpin(pg)
	if string(pg.Data[superOffMagic:superOffMagic+4]) != superMagic {
		return InvalidPageID, fmt.Errorf("storage: bad magic — not a dkbms database")
	}
	if v := binary.BigEndian.Uint32(pg.Data[superOffVersion:]); v != superVersion {
		return InvalidPageID, fmt.Errorf("storage: format version %d, want %d", v, superVersion)
	}
	p.setHasSuper()
	return PageID(binary.BigEndian.Uint32(pg.Data[superOffRoot:])), nil
}

func (p *Pager) setHasSuper() {
	p.hasSuper.Store(true)
}

func (p *Pager) superblockPresent() bool {
	return p.hasSuper.Load()
}

// SetRoot records the catalog heap head in the superblock.
func (p *Pager) SetRoot(id PageID) error {
	pg, err := p.Fetch(0)
	if err != nil {
		return err
	}
	defer p.Unpin(pg)
	binary.BigEndian.PutUint32(pg.Data[superOffRoot:], uint32(id))
	pg.Dirty = true
	return nil
}

func (p *Pager) freeHead() (PageID, error) {
	pg, err := p.Fetch(0)
	if err != nil {
		return InvalidPageID, err
	}
	defer p.Unpin(pg)
	return PageID(binary.BigEndian.Uint32(pg.Data[superOffFree:])), nil
}

func (p *Pager) setFreeHead(id PageID) error {
	pg, err := p.Fetch(0)
	if err != nil {
		return err
	}
	defer p.Unpin(pg)
	binary.BigEndian.PutUint32(pg.Data[superOffFree:], uint32(id))
	pg.Dirty = true
	return nil
}

// AllocateReusable returns a pinned, freshly initialized page, preferring
// the free list over growing the store. Heaps and the catalog use this;
// raw Allocate remains for the superblock itself.
func (p *Pager) AllocateReusable() (*Page, error) {
	if !p.superblockPresent() {
		// Bare pager (no superblock, e.g. unit tests): just grow.
		return p.Allocate()
	}
	// The pop below is a multi-step read-modify-write of the free list;
	// flMu keeps concurrent allocators (e.g. two sessions materializing
	// temp tables) from popping the same page twice.
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the chain's page fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	head, err := p.freeHead()
	if err != nil {
		return nil, err
	}
	if head == InvalidPageID {
		return p.Allocate()
	}
	pg, err := p.Fetch(head)
	if err != nil {
		return nil, err
	}
	next := pg.Next()
	pg.Init() // keeps ID, clears contents
	if err := p.setFreeHead(next); err != nil {
		p.Unpin(pg)
		return nil, err
	}
	return pg, nil
}

// FreeChain pushes every page of a heap chain onto its region's free
// list: a temp chain onto the temp region's, in memory, any other onto
// the file's. On a bare pager (no superblock) a chain outside the temp
// region simply leaks; only full databases recycle file pages.
func (p *Pager) FreeChain(head PageID) error {
	if head == InvalidPageID {
		return nil
	}
	if head >= TempBase {
		return p.freeTempChain(head)
	}
	if !p.superblockPresent() {
		return nil
	}
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the chain's page fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	id := head
	for id != InvalidPageID {
		pg, err := p.Fetch(id)
		if err != nil {
			return err
		}
		next := pg.Next()
		fh, err := p.freeHead()
		if err != nil {
			p.Unpin(pg)
			return err
		}
		pg.Init()
		pg.SetNext(fh)
		if err := p.setFreeHead(id); err != nil {
			p.Unpin(pg)
			return err
		}
		p.Unpin(pg)
		id = next
	}
	return nil
}

// freeTempChain pushes every page of a temp chain onto the temp free
// list.
func (p *Pager) freeTempChain(head PageID) error {
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the chain's page fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	for id := head; id != InvalidPageID; {
		pg, err := p.Fetch(id)
		if err != nil {
			return err
		}
		next := pg.Next()
		pg.Init()
		pg.SetNext(p.tempFree)
		p.tempFree = id
		p.tempFreeN++
		p.Unpin(pg)
		id = next
	}
	return nil
}

// FreePages counts the pages currently on the file's free list
// (diagnostics).
func (p *Pager) FreePages() (int, error) {
	n := 0
	err := p.WalkFree(func(PageID) error { n++; return nil })
	return n, err
}

// WalkFree calls fn with every page on the file's free list, head
// first. A bare pager (no superblock) has no free list.
func (p *Pager) WalkFree(fn func(id PageID) error) error {
	if !p.superblockPresent() {
		return nil
	}
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the chain's page fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	head, err := p.freeHead()
	if err != nil {
		return err
	}
	return p.WalkChain(head, fn)
}

// WalkChain calls fn with every page of the chain that starts at head,
// in chain order. An error from fn stops the walk.
func (p *Pager) WalkChain(head PageID, fn func(id PageID) error) error {
	for id := head; id != InvalidPageID; {
		pg, err := p.Fetch(id)
		if err != nil {
			return err
		}
		next := pg.Next()
		p.Unpin(pg)
		if err := fn(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}
