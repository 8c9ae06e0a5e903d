// Package storage is a stand-in for the buffer pool: Fetch takes the
// pool latch, page write-back writes the file under the latch (waived,
// as at the real pager's write-back sites), and the free list's flMu is
// ordered before the latch. A waiver covers the write-back only: a
// waived latch that re-enters the pager or takes flMu is still a cycle.
package storage

import (
	"os"
	"sync"
)

type PageID uint32

type Page struct {
	ID   PageID
	Data []byte
}

type Pager struct {
	f    *os.File
	flMu sync.Mutex
	mu   sync.Mutex
	hits int64
}

// Fetch pins a page under the pool latch.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits++
	return &Page{ID: id}, nil
}

func (p *Pager) writePage(pg *Page) error {
	_, err := p.f.WriteAt(pg.Data, int64(pg.ID)*4096)
	return err
}

// The evict helpers run under the pool latch: write-back is sanctioned
// there, re-entering the pager is not.
func (p *Pager) evictOK(pg *Page) { p.writePage(pg) }

func (p *Pager) evictBad(pg *Page) {
	p.writePage(pg)
	p.Fetch(pg.ID + 1)
}

func (p *Pager) evict(pg *Page, refetch bool) {
	//dkblint:locksafe write-back must finish before the victim frame is reused
	p.mu.Lock() // want "lock-order cycle: storage\\.Pager\\.mu acquired via Pager\\.evictBad → Pager\\.Fetch while storage\\.Pager\\.mu is held; cycle storage\\.Pager\\.mu → storage\\.Pager\\.mu"
	defer p.mu.Unlock()
	if refetch {
		p.evictBad(pg)
		return
	}
	p.evictOK(pg)
}

// Allocate takes the free list, then a page: flMu → latch.
func (p *Pager) Allocate() (*Page, error) {
	p.flMu.Lock() // want "lock-order cycle: storage\\.Pager\\.mu acquired via Pager\\.Fetch while storage\\.Pager\\.flMu is held"
	defer p.flMu.Unlock()
	return p.Fetch(0)
}

// badUnderLatch inverts that order.
func (p *Pager) badUnderLatch() {
	p.mu.Lock() // want "lock-order cycle: storage\\.Pager\\.flMu acquired while storage\\.Pager\\.mu is held"
	p.flMu.Lock()
	p.flMu.Unlock()
	p.mu.Unlock()
}

// hitsOf takes the latch once per page, releasing it between pages.
func (p *Pager) hitsOf(ids []PageID) int64 {
	var total int64
	for range ids {
		p.mu.Lock()
		total += p.hits
		p.mu.Unlock()
	}
	return total
}

func (p *Pager) badForgot(c bool) {
	p.mu.Lock() // want "p\\.mu\\.Lock is not released on every path out of badForgot \\(missing Unlock or defer\\)"
	if c {
		return
	}
	p.mu.Unlock()
}

type HeapFile struct{ f *os.File }

// CreateHeap writes the new heap's header page.
func CreateHeap(p *Pager) (*HeapFile, error) {
	if _, err := p.f.Write(make([]byte, 4096)); err != nil {
		return nil, err
	}
	return &HeapFile{f: p.f}, nil
}

func (h *HeapFile) Insert(rec []byte) (int, error) { return h.f.Write(rec) }
