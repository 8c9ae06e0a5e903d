// Package storage is a stand-in for the buffer pool: Fetch takes a
// shard latch, page write-back writes the file under the latch (waived,
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
	f      *os.File
	flMu   sync.Mutex
	shards []shard
}

type shard struct {
	mu   sync.Mutex
	hits int64
}

func (p *Pager) shardOf(id PageID) *shard { return &p.shards[int(id)%len(p.shards)] }

// Fetch pins a page under its shard latch.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.hits++
	return &Page{ID: id}, nil
}

func (p *Pager) writePage(pg *Page) error {
	_, err := p.f.WriteAt(pg.Data, int64(pg.ID)*4096)
	return err
}

// Shard methods run under their shard's latch: write-back is sanctioned
// there, re-entering the pager is not.
func (sh *shard) evictOK(p *Pager, pg *Page) { p.writePage(pg) }

func (sh *shard) evictBad(p *Pager, pg *Page) {
	p.writePage(pg)
	p.Fetch(pg.ID + 1)
}

func (p *Pager) evict(pg *Page, refetch bool) {
	sh := p.shardOf(pg.ID)
	//dkblint:locksafe write-back must finish before the victim frame is reused
	sh.mu.Lock() // want "lock-order cycle: storage\\.shard\\.mu acquired via shard\\.evictBad → Pager\\.Fetch while storage\\.shard\\.mu is held; cycle storage\\.shard\\.mu → storage\\.shard\\.mu"
	defer sh.mu.Unlock()
	if refetch {
		sh.evictBad(p, pg)
		return
	}
	sh.evictOK(p, pg)
}

// Allocate takes the free list, then a page: flMu → latch.
func (p *Pager) Allocate() (*Page, error) {
	p.flMu.Lock() // want "lock-order cycle: storage\\.shard\\.mu acquired via Pager\\.Fetch while storage\\.Pager\\.flMu is held"
	defer p.flMu.Unlock()
	return p.Fetch(0)
}

// badUnderLatch inverts that order.
func (p *Pager) badUnderLatch(id PageID) {
	sh := p.shardOf(id)
	sh.mu.Lock() // want "lock-order cycle: storage\\.Pager\\.flMu acquired while storage\\.shard\\.mu is held"
	p.flMu.Lock()
	p.flMu.Unlock()
	sh.mu.Unlock()
}

func (p *Pager) statsOK() int64 {
	var total int64
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		total += sh.hits
		sh.mu.Unlock()
	}
	return total
}

func (p *Pager) badForgot(c bool) {
	sh := p.shardOf(0)
	sh.mu.Lock() // want "sh\\.mu\\.Lock is not released on every path out of badForgot \\(missing Unlock or defer\\)"
	if c {
		return
	}
	sh.mu.Unlock()
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
