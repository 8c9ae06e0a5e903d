// Package catalog is a stand-in for the catalog: no heap I/O under the
// registry mutex, including in the *Locked helpers its holders call.
package catalog

import (
	"sync"

	"storage"
)

type Catalog struct {
	mu     sync.RWMutex
	pager  *storage.Pager
	heap   *storage.HeapFile
	tables map[string]bool
}

func (c *Catalog) lookupOK(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

func (c *Catalog) createBad(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, err := storage.CreateHeap(c.pager) // want "catalog\\.Catalog\\.mu held across file I/O \\(os\\.File\\.Write\\) \\(via storage\\.CreateHeap\\)"
	if err != nil {
		return err
	}
	_ = h
	c.tables[name] = true
	return nil
}

// registerLocked runs with c.mu held.
func (c *Catalog) registerLocked(rec []byte) error {
	_, err := c.heap.Insert(rec)
	return err
}

func (c *Catalog) register(rec []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerLocked(rec) // want "catalog\\.Catalog\\.mu held across file I/O \\(os\\.File\\.Write\\) \\(via Catalog\\.registerLocked → HeapFile\\.Insert\\)"
}

func (c *Catalog) createOK(name string) error {
	h, err := storage.CreateHeap(c.pager)
	if err != nil {
		return err
	}
	_ = h
	c.mu.Lock()
	c.tables[name] = true
	c.mu.Unlock()
	return nil
}
