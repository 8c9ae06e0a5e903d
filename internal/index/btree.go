// Package index implements the B+tree secondary index used by the
// testbed's DBMS. The paper's experiments depend critically on indexed
// access paths — the flatness of rule-extraction time in the size of the
// stored rule base (Fig 7) and of dictionary-read time in the number of
// stored predicates (Fig 9) both come from indexes on the join columns of
// the system relations — so the index is a first-class substrate here.
//
// Keys are composite tuples compared lexicographically; duplicates are
// supported via RID postings lists in the leaves. Leaves are chained for
// range scans. The tree is memory-resident and rebuilt from the heap file
// when a database is reopened (the catalog records index definitions, not
// index pages), which keeps the on-disk format to heap pages only.
package index

import (
	"fmt"
	"sync/atomic"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// degree is the maximum number of keys per node. 64 keeps the tree
// shallow for the table sizes in the paper's experiments (up to ~20k
// tuples) while exercising splits in tests.
const degree = 64

// BTree is a B+tree mapping composite keys to RID postings.
type BTree struct {
	root   node
	height int
	size   int // number of (key, rid) pairs, counting duplicates
	keys   int // number of distinct keys

	// Traffic counters. searches/depthSum are atomics because lookups run
	// concurrently (the server admits parallel readers over one tree);
	// splits only moves under write exclusivity but is atomic too so a
	// metrics snapshot taken mid-write reads cleanly.
	searches atomic.Int64
	depthSum atomic.Int64
	splits   atomic.Int64
}

// TreeStats is a snapshot of a tree's shape and traffic: structural
// fields (height, distinct keys, total entries) plus cumulative search
// count, summed search depth (descents visit DepthTotal/Searches nodes
// on average) and node splits.
type TreeStats struct {
	Height     int64 `json:"height"`
	Keys       int64 `json:"keys"`
	Entries    int64 `json:"entries"`
	Searches   int64 `json:"searches"`
	DepthTotal int64 `json:"depth_total"`
	Splits     int64 `json:"splits"`
}

// Stats snapshots the tree. The structural fields (Height, Keys,
// Entries) are maintained by writers without synchronization, so a
// snapshot concurrent with writes needs the same exclusion as tuple
// traffic (the server's testbed lock); the counters are atomic.
func (t *BTree) Stats() TreeStats {
	return TreeStats{
		Height:     int64(t.height),
		Keys:       int64(t.keys),
		Entries:    int64(t.size),
		Searches:   t.searches.Load(),
		DepthTotal: t.depthSum.Load(),
		Splits:     t.splits.Load(),
	}
}

type node interface{ isNode() }

type leaf struct {
	keys []rel.Tuple
	rids [][]storage.RID
	next *leaf
	prev *leaf
}

type inner struct {
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys     []rel.Tuple
	children []node
}

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// New returns an empty tree.
func New() *BTree {
	return &BTree{root: &leaf{}, height: 1}
}

// Len returns the number of (key, rid) entries, counting duplicates.
func (t *BTree) Len() int { return t.size }

// DistinctKeys returns the number of distinct keys.
func (t *BTree) DistinctKeys() int { return t.keys }

// Height returns the tree height (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// search finds the leaf that key belongs to.
func (t *BTree) search(key rel.Tuple) *leaf {
	t.searches.Add(1)
	n := t.root
	depth := int64(0)
	for {
		depth++
		switch v := n.(type) {
		case *leaf:
			t.depthSum.Add(depth)
			return v
		case *inner:
			i := 0
			for i < len(v.keys) && rel.CompareTuples(key, v.keys[i]) >= 0 {
				i++
			}
			n = v.children[i]
		}
	}
}

// leafPos returns the position of key within lf, and whether it is
// present.
func leafPos(lf *leaf, key rel.Tuple) (int, bool) {
	lo, hi := 0, len(lf.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if rel.CompareTuples(lf.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(lf.keys) && rel.CompareTuples(lf.keys[lo], key) == 0
}

// Insert adds a (key, rid) pair. Duplicate keys accumulate postings; a
// duplicate (key, rid) pair is rejected. The tree keeps its own copy of
// a key it does not hold yet (rel.Tuple.Clone: values and string bytes),
// so the caller's tuple — usually a view into a decoded block — is not
// retained. Stored keys are never modified, which lets a separator
// share the tuple of the leaf key it was taken from.
func (t *BTree) Insert(key rel.Tuple, rid storage.RID) error {
	split, sepKey, err := t.insert(t.root, key, rid)
	if err != nil {
		return err
	}
	if split != nil {
		t.root = &inner{keys: []rel.Tuple{sepKey}, children: []node{t.root, split}}
		t.height++
	}
	return nil
}

// insert descends into n; if n splits, returns the new right sibling and
// the separator key.
func (t *BTree) insert(n node, key rel.Tuple, rid storage.RID) (node, rel.Tuple, error) {
	switch v := n.(type) {
	case *leaf:
		i, found := leafPos(v, key)
		if found {
			for _, r := range v.rids[i] {
				if r == rid {
					return nil, nil, fmt.Errorf("index: duplicate entry %v -> %s", key, rid)
				}
			}
			v.rids[i] = append(v.rids[i], rid)
			t.size++
			return nil, nil, nil
		}
		v.keys = append(v.keys, nil)
		copy(v.keys[i+1:], v.keys[i:])
		v.keys[i] = key.Clone()
		v.rids = append(v.rids, nil)
		copy(v.rids[i+1:], v.rids[i:])
		v.rids[i] = []storage.RID{rid}
		t.size++
		t.keys++
		if len(v.keys) <= degree {
			return nil, nil, nil
		}
		// Split leaf.
		t.splits.Add(1)
		mid := len(v.keys) / 2
		right := &leaf{
			keys: append([]rel.Tuple(nil), v.keys[mid:]...),
			rids: append([][]storage.RID(nil), v.rids[mid:]...),
			next: v.next,
			prev: v,
		}
		if v.next != nil {
			v.next.prev = right
		}
		v.keys = v.keys[:mid]
		v.rids = v.rids[:mid]
		v.next = right
		return right, right.keys[0], nil

	case *inner:
		i := 0
		for i < len(v.keys) && rel.CompareTuples(key, v.keys[i]) >= 0 {
			i++
		}
		split, sepKey, err := t.insert(v.children[i], key, rid)
		if err != nil || split == nil {
			return nil, nil, err
		}
		v.keys = append(v.keys, nil)
		copy(v.keys[i+1:], v.keys[i:])
		v.keys[i] = sepKey
		v.children = append(v.children, nil)
		copy(v.children[i+2:], v.children[i+1:])
		v.children[i+1] = split
		if len(v.keys) <= degree {
			return nil, nil, nil
		}
		// Split inner: middle key moves up.
		t.splits.Add(1)
		mid := len(v.keys) / 2
		upKey := v.keys[mid]
		right := &inner{
			keys:     append([]rel.Tuple(nil), v.keys[mid+1:]...),
			children: append([]node(nil), v.children[mid+1:]...),
		}
		v.keys = v.keys[:mid]
		v.children = v.children[:mid+1]
		return right, upKey, nil
	}
	return nil, nil, fmt.Errorf("index: unknown node type %T", n)
}

// Delete removes a (key, rid) pair. It returns an error if the pair is
// absent. Underfull nodes are tolerated (no rebalancing): the testbed's
// delete traffic is table truncation and temp-table teardown, which drop
// whole indexes; point deletes only need correctness, and lookups remain
// O(log n) since keys stay ordered.
func (t *BTree) Delete(key rel.Tuple, rid storage.RID) error {
	lf := t.search(key)
	i, found := leafPos(lf, key)
	if !found {
		return fmt.Errorf("index: delete of absent key %v", key)
	}
	for j, r := range lf.rids[i] {
		if r == rid {
			lf.rids[i] = append(lf.rids[i][:j], lf.rids[i][j+1:]...)
			t.size--
			if len(lf.rids[i]) == 0 {
				lf.keys = append(lf.keys[:i], lf.keys[i+1:]...)
				lf.rids = append(lf.rids[:i], lf.rids[i+1:]...)
				t.keys--
			}
			return nil
		}
	}
	return fmt.Errorf("index: delete of absent rid %s under key %v", rid, key)
}

// Lookup returns the postings for an exact key match (nil if absent).
// The slice is the tree's own: the caller reads it before the next
// Insert or Delete and does not modify it.
func (t *BTree) Lookup(key rel.Tuple) []storage.RID {
	lf := t.search(key)
	i, found := leafPos(lf, key)
	if !found {
		return nil
	}
	return lf.rids[i]
}

// LookupPrefix returns the postings for every key whose leading columns
// equal prefix. Used for indexes queried on a prefix of their columns.
func (t *BTree) LookupPrefix(prefix rel.Tuple) []storage.RID {
	var out []storage.RID
	t.AscendPrefix(prefix, func(_ rel.Tuple, rids []storage.RID) bool {
		out = append(out, rids...)
		return true
	})
	return out
}

// CountPrefix returns how many postings LookupPrefix(prefix) returns,
// without collecting them.
func (t *BTree) CountPrefix(prefix rel.Tuple) int {
	n := 0
	t.AscendPrefix(prefix, func(_ rel.Tuple, rids []storage.RID) bool {
		n += len(rids)
		return true
	})
	return n
}

// AscendPrefix visits keys with the given prefix in order. fn returning
// false stops the iteration. An empty prefix visits all keys.
func (t *BTree) AscendPrefix(prefix rel.Tuple, fn func(key rel.Tuple, rids []storage.RID) bool) {
	lf := t.search(prefix)
	i, _ := leafPos(lf, prefix)
	for lf != nil {
		for ; i < len(lf.keys); i++ {
			k := lf.keys[i]
			if len(prefix) > 0 {
				if len(k) < len(prefix) {
					return
				}
				if rel.CompareTuples(k[:len(prefix)], prefix) != 0 {
					return
				}
			}
			if !fn(k, lf.rids[i]) {
				return
			}
		}
		lf = lf.next
		i = 0
	}
}

// AscendRange visits keys k with lo <= k < hi in order. A nil lo starts
// at the smallest key; a nil hi runs to the end.
func (t *BTree) AscendRange(lo, hi rel.Tuple, fn func(key rel.Tuple, rids []storage.RID) bool) {
	var lf *leaf
	var i int
	if lo == nil {
		lf = t.leftmost()
	} else {
		lf = t.search(lo)
		i, _ = leafPos(lf, lo)
	}
	for lf != nil {
		for ; i < len(lf.keys); i++ {
			if hi != nil && rel.CompareTuples(lf.keys[i], hi) >= 0 {
				return
			}
			if !fn(lf.keys[i], lf.rids[i]) {
				return
			}
		}
		lf = lf.next
		i = 0
	}
}

func (t *BTree) leftmost() *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			n = v.children[0]
		}
	}
}

// Validate checks structural invariants (ordering, separator bounds,
// leaf chaining) and returns the first violation found. Test support.
func (t *BTree) Validate() error {
	var prevLeaf *leaf
	var prevKey rel.Tuple
	count, distinct := 0, 0
	var walk func(n node, lo, hi rel.Tuple) error
	walk = func(n node, lo, hi rel.Tuple) error {
		switch v := n.(type) {
		case *leaf:
			if v.prev != prevLeaf {
				return fmt.Errorf("index: broken leaf back-link")
			}
			if prevLeaf != nil && prevLeaf.next != v {
				return fmt.Errorf("index: broken leaf chain")
			}
			prevLeaf = v
			for i, k := range v.keys {
				if prevKey != nil && rel.CompareTuples(prevKey, k) >= 0 {
					return fmt.Errorf("index: keys out of order at %v", k)
				}
				if lo != nil && rel.CompareTuples(k, lo) < 0 {
					return fmt.Errorf("index: key %v below subtree bound %v", k, lo)
				}
				if hi != nil && rel.CompareTuples(k, hi) >= 0 {
					return fmt.Errorf("index: key %v above subtree bound %v", k, hi)
				}
				if len(v.rids[i]) == 0 {
					return fmt.Errorf("index: empty postings for key %v", k)
				}
				prevKey = k
				distinct++
				count += len(v.rids[i])
			}
			return nil
		case *inner:
			if len(v.children) != len(v.keys)+1 {
				return fmt.Errorf("index: inner node with %d keys, %d children", len(v.keys), len(v.children))
			}
			for i, c := range v.children {
				var cl, ch rel.Tuple
				if i > 0 {
					cl = v.keys[i-1]
				} else {
					cl = lo
				}
				if i < len(v.keys) {
					ch = v.keys[i]
				} else {
					ch = hi
				}
				if err := walk(c, cl, ch); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("index: unknown node type %T", n)
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size || distinct != t.keys {
		return fmt.Errorf("index: size mismatch: counted %d/%d, recorded %d/%d", count, distinct, t.size, t.keys)
	}
	if prevLeaf != nil && prevLeaf.next != nil {
		return fmt.Errorf("index: leaf chain extends past rightmost leaf")
	}
	return nil
}
