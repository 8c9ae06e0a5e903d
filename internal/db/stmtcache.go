package db

import (
	"strings"
	"sync"
	"sync/atomic"

	"dkbms/internal/rel"
)

// MaxCachedStmts bounds the statements a database keeps prepared. The
// plan of a two-table differential — INSERT, join, two EXCEPTs — holds
// about 2 KiB, so a cache full of them holds about half a MiB. An
// evaluation prepares a handful of distinct statements and the
// run-time library's forms repeat across programs, so a workload fills
// the cache only by compiling that many distinct rule shapes.
const MaxCachedStmts = 256

// stmtCache is the statements prepared on one database, shared by its
// views: a generation of at most MaxCachedStmts entries, replaced by an
// empty one when full. Handles already taken keep the plans they hold.
type stmtCache struct {
	gen atomic.Pointer[stmtGen]
}

// stmtGen is one generation: stmtKey → *prepared, and how many entries
// have been admitted to it.
type stmtGen struct {
	m sync.Map
	n atomic.Int64
}

func newStmtCache() *stmtCache {
	c := new(stmtCache)
	c.gen.Store(new(stmtGen))
	return c
}

// stmtKey identifies a statement: its text and its parameters' schemas
// by structure.
func stmtKey(text string, params []*rel.Schema) string {
	var b strings.Builder
	b.Grow(len(text) + 24*len(params))
	b.WriteString(text)
	for _, p := range params {
		b.WriteByte(0)
		if p != nil {
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// load returns the statement cached under key, or nil.
func (c *stmtCache) load(key string) *prepared {
	if p, ok := c.gen.Load().m.Load(key); ok {
		return p.(*prepared)
	}
	return nil
}

// store caches p under key and returns the statement cached there: p,
// or the one a concurrent Prepare stored first. A generation admits
// MaxCachedStmts entries; the store that finds it full starts the next.
func (c *stmtCache) store(key string, p *prepared) *prepared {
	for {
		g := c.gen.Load()
		if g.n.Add(1) <= MaxCachedStmts {
			got, _ := g.m.LoadOrStore(key, p)
			return got.(*prepared)
		}
		c.gen.CompareAndSwap(g, new(stmtGen))
	}
}

// CachedStatements returns how many statements the database keeps
// prepared, at most MaxCachedStmts.
func (d *DB) CachedStatements() int {
	n := 0
	d.stmts.gen.Load().m.Range(func(any, any) bool { n++; return true })
	return n
}
