package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Superblock layout (page 0 of every database file):
//
//	offset 0:  magic "DKBM"
//	offset 4:  uint32 format version
//	offset 8:  uint32 free-list head page ID
//	offset 12: uint16 length of the root heap's stored directory
//	offset 14: the root (catalog) heap's stored directory
//	           (HeapFile.AppendDir)
//
// The free list reuses the page-header next field of the freed pages
// themselves, so freeing a page is O(1) writes and allocation pops in
// O(1).
const (
	superMagic   = "DKBM"
	superVersion = 2

	superOffMagic   = 0
	superOffVersion = 4
	superOffFree    = 8
	superOffRootLen = 12
	superOffRoot    = 14
)

// EnsureSuperblock formats page 0 as a superblock on a fresh store, or
// validates an existing one. It returns the root heap's stored directory
// recorded there (nil on a fresh store).
func (p *Pager) EnsureSuperblock() ([]byte, error) {
	if p.PageCount() == 0 {
		pg, err := p.Allocate()
		if err != nil {
			return nil, err
		}
		defer p.Unpin(pg)
		if pg.ID != 0 {
			return nil, fmt.Errorf("storage: superblock allocated as page %d", pg.ID)
		}
		copy(pg.Data[superOffMagic:], superMagic)
		binary.BigEndian.PutUint32(pg.Data[superOffVersion:], superVersion)
		binary.BigEndian.PutUint32(pg.Data[superOffFree:], uint32(InvalidPageID))
		binary.BigEndian.PutUint16(pg.Data[superOffRootLen:], 0)
		pg.Dirty = true
		p.setHasSuper()
		return nil, nil
	}
	pg, err := p.Fetch(0)
	if err != nil {
		return nil, err
	}
	defer p.Unpin(pg)
	if string(pg.Data[superOffMagic:superOffMagic+4]) != superMagic {
		return nil, fmt.Errorf("storage: bad magic — not a dkbms database")
	}
	if v := binary.BigEndian.Uint32(pg.Data[superOffVersion:]); v != superVersion {
		return nil, fmt.Errorf("storage: format version %d, want %d", v, superVersion)
	}
	p.setHasSuper()
	n := int(binary.BigEndian.Uint16(pg.Data[superOffRootLen:]))
	if n > PageSize-superOffRoot {
		return nil, fmt.Errorf("storage: superblock root of %d bytes", n)
	}
	if n == 0 {
		return nil, nil
	}
	return bytes.Clone(pg.Data[superOffRoot : superOffRoot+n]), nil
}

func (p *Pager) setHasSuper() {
	p.hasSuper.Store(true)
}

func (p *Pager) superblockPresent() bool {
	return p.hasSuper.Load()
}

// SetRoot records the root heap's stored directory in the superblock.
func (p *Pager) SetRoot(root []byte) error {
	if len(root) > PageSize-superOffRoot {
		return fmt.Errorf("storage: root of %d bytes does not fit the superblock", len(root))
	}
	pg, err := p.Fetch(0)
	if err != nil {
		return err
	}
	defer p.Unpin(pg)
	binary.BigEndian.PutUint16(pg.Data[superOffRootLen:], uint16(len(root)))
	copy(pg.Data[superOffRoot:], root)
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

// Free pushes each of the pages onto its region's free list: a temp
// page onto the temp region's, in memory, any other onto the file's. On
// a bare pager (no superblock) a page outside the temp region simply
// leaks; only full databases recycle file pages.
func (p *Pager) Free(ids []PageID) error {
	if len(ids) == 0 {
		return nil
	}
	//dkblint:locksafe free-list transactions are multi-page read-modify-writes; flMu must span the pages' fetches
	p.flMu.Lock()
	defer p.flMu.Unlock()
	for _, id := range ids {
		if id < TempBase && !p.superblockPresent() {
			continue
		}
		pg, err := p.Fetch(id)
		if err != nil {
			return err
		}
		pg.Init()
		if id >= TempBase {
			pg.SetNext(p.tempFree)
			p.tempFree = id
			p.tempFreeN++
			p.Unpin(pg)
			continue
		}
		fh, err := p.freeHead()
		if err == nil {
			pg.SetNext(fh)
			err = p.setFreeHead(id)
		}
		p.Unpin(pg)
		if err != nil {
			return err
		}
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
