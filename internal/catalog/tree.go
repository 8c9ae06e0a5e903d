package catalog

import (
	"dkbms/internal/index"
	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// indexTree wraps the B+tree so catalog callers get a focused surface
// (insert, delete, lookup, prefix scan) without importing the index
// package directly.
type indexTree struct {
	t *index.BTree
}

func newIndexTree() *indexTree { return &indexTree{t: index.New()} }

// Insert adds a (key, rid) entry.
func (it *indexTree) Insert(key rel.Tuple, rid storage.RID) error {
	return it.t.Insert(key, rid)
}

// Delete removes a (key, rid) entry.
func (it *indexTree) Delete(key rel.Tuple, rid storage.RID) error {
	return it.t.Delete(key, rid)
}

// Lookup returns postings for an exact key.
func (it *indexTree) Lookup(key rel.Tuple) []storage.RID {
	return it.t.Lookup(key)
}

// LookupPrefix returns postings for all keys with the given prefix.
func (it *indexTree) LookupPrefix(prefix rel.Tuple) []storage.RID {
	return it.t.LookupPrefix(prefix)
}

// CountPrefix returns the number of postings LookupPrefix returns.
func (it *indexTree) CountPrefix(prefix rel.Tuple) int { return it.t.CountPrefix(prefix) }

// Len returns the number of entries.
func (it *indexTree) Len() int { return it.t.Len() }

// Stats snapshots the tree's shape and traffic counters.
func (it *indexTree) Stats() index.TreeStats { return it.t.Stats() }

// Lookup returns postings for the key (exact match on all index columns).
func (ix *Index) Lookup(key rel.Tuple) []storage.RID { return ix.Tree.Lookup(key) }

// LookupPrefix returns postings for keys matching the leading columns.
func (ix *Index) LookupPrefix(prefix rel.Tuple) []storage.RID {
	return ix.Tree.LookupPrefix(prefix)
}

// CountPrefix returns the number of postings LookupPrefix returns,
// allocating nothing.
func (ix *Index) CountPrefix(prefix rel.Tuple) int { return ix.Tree.CountPrefix(prefix) }

// Entries returns the number of entries in the index.
func (ix *Index) Entries() int { return ix.Tree.Len() }

// Stats snapshots the index tree's shape (height, keys, entries) and
// traffic (searches, summed search depth, splits). The structural fields
// need the same exclusion as tuple traffic when writers are live.
func (ix *Index) Stats() index.TreeStats { return ix.Tree.Stats() }
