package db

import (
	"sync"
	"sync/atomic"

	"dkbms/internal/rel"
)

// MaxCachedStmts bounds the statements a database keeps prepared. The
// plan of a two-table differential — INSERT, join, two EXCEPTs — holds
// about 2 KiB, and the operator tree kept with it, shed between runs
// (Stmt.Shed), 1–2 KiB more, so a cache full of them holds about 1 MiB. An
// evaluation prepares a handful of distinct statements and the
// run-time library's forms repeat across programs, so a workload fills
// the cache only by compiling that many distinct rule shapes.
const MaxCachedStmts = 256

// stmtCache is the statements prepared on one database, shared by its
// views: a generation of at most MaxCachedStmts entries, replaced by an
// empty one when full. Statements already taken stay usable.
type stmtCache struct {
	gen atomic.Pointer[stmtGen]
}

// stmtGen is one generation: statement text → the *Stmt entries of
// that text, one per list of parameter schemas, chained through next;
// and how many entries have been admitted to it.
type stmtGen struct {
	m sync.Map
	n atomic.Int64
}

func newStmtCache() *stmtCache {
	c := new(stmtCache)
	c.gen.Store(new(stmtGen))
	return c
}

// load returns the statement cached for text and params, or nil. It
// renders nothing: the entry is found by text, and its parameter
// schemas are compared by structure.
func (c *stmtCache) load(text string, params []*rel.Schema) *Stmt {
	v, ok := c.gen.Load().m.Load(text)
	if !ok {
		return nil
	}
	return find(v.(*Stmt), params)
}

// find returns the entry of the chain at head whose parameter schemas
// are params by structure, or nil.
func find(head *Stmt, params []*rel.Schema) *Stmt {
	for p := head; p != nil; p = p.next {
		if sameSchemas(p.params, params) {
			return p
		}
	}
	return nil
}

// sameSchemas reports whether a and b declare the same schemas.
func sameSchemas(a, b []*rel.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i, s := range a {
		if s != b[i] && (s == nil || b[i] == nil || !s.Equal(b[i])) {
			return false
		}
	}
	return true
}

// store caches p under text and returns the statement cached for p's
// text and parameter schemas: p, or the one a concurrent Prepare stored
// first. A generation admits MaxCachedStmts entries; the store that
// finds it full starts the next.
func (c *stmtCache) store(text string, p *Stmt) *Stmt {
	for {
		g := c.gen.Load()
		if g.n.Add(1) > MaxCachedStmts {
			c.gen.CompareAndSwap(g, new(stmtGen))
			continue
		}
		for {
			v, loaded := g.m.LoadOrStore(text, p)
			if !loaded {
				return p
			}
			head := v.(*Stmt)
			if have := find(head, p.params); have != nil {
				return have
			}
			p.next = head
			if g.m.CompareAndSwap(text, head, p) {
				return p
			}
		}
	}
}

// CachedStatements returns how many statements the database keeps
// prepared, at most MaxCachedStmts.
func (d *DB) CachedStatements() int {
	n := 0
	d.stmts.gen.Load().m.Range(func(_, v any) bool {
		for p := v.(*Stmt); p != nil; p = p.next {
			n++
		}
		return true
	})
	return n
}
