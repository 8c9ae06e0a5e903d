// Release fixtures: every Lock/RLock, of a lock class or of a local
// mutex, is released on every path out of its function, and only the
// function's own defers count.
package release

import (
	"sync"
	"sync/atomic"

	"sched"
)

type snap struct {
	gen    uint64
	tables map[string]int
}

// store is a snapshot store's commit path: copy-on-write under a
// single-writer mutex, publication by an atomic pointer swap.
type store struct {
	commitMu sync.Mutex
	current  atomic.Pointer[snap]
}

func copyTables(src map[string]int) (map[string]int, error) {
	out := make(map[string]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out, nil
}

// publishOK's deferred unlock covers the error return.
func (st *store) publishOK() error {
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	old := st.current.Load()
	tables, err := copyTables(old.tables)
	if err != nil {
		return err
	}
	st.current.Store(&snap{gen: old.gen + 1, tables: tables})
	return nil
}

// publishLeaky forgets the unlock on the failed-copy return: the next
// writer blocks forever.
func (st *store) publishLeaky() error {
	st.commitMu.Lock() // want "st\\.commitMu\\.Lock is not released on every path out of publishLeaky"
	old := st.current.Load()
	tables, err := copyTables(old.tables)
	if err != nil {
		return err
	}
	st.current.Store(&snap{gen: old.gen + 1, tables: tables})
	st.commitMu.Unlock()
	return nil
}

func (st *store) relock(n int) {
	for i := 0; i < n; i++ {
		st.commitMu.Lock() // want "st\\.commitMu\\.Lock is still held when the loop re-acquires it"
		st.current.Load()
	}
	st.commitMu.Unlock()
}

// A local mutex has no lock class but the same obligation.
func localLeaky(c bool) int {
	var mu sync.RWMutex
	mu.RLock() // want "mu\\.RLock is not released on every path out of localLeaky \\(missing RUnlock or defer\\)"
	if c {
		return 1
	}
	mu.RUnlock()
	return 0
}

// cache is the plan cache's invalidation shape: the outer lock is
// released explicitly before the wait, and the closure's deferred
// unlock releases only the closure's own acquisition. Neither the wait
// nor drain runs under the outer lock.
type cache struct {
	mu sync.Mutex
	n  int
}

func (c *cache) drain() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}

func (c *cache) invalidate(g *sched.Group) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	run := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n--
	}
	run()
	g.Wait()
	c.drain()
}

func (c *cache) invalidateLeaky(stop bool) {
	c.mu.Lock() // want "c\\.mu\\.Lock is not released on every path out of invalidateLeaky"
	if stop {
		return
	}
	c.mu.Unlock()
	run := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	run()
}
