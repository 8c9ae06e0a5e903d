// Package index implements the B+tree secondary index used by the
// testbed's DBMS. The paper's experiments depend critically on indexed
// access paths — the flatness of rule-extraction time in the size of the
// stored rule base (Fig 7) and of dictionary-read time in the number of
// stored predicates (Fig 9) both come from indexes on the join columns of
// the system relations — so the index is a first-class substrate here.
//
// A key is a row's indexed columns as its stored record encodes them
// (rel.Spans.AppendCols, rel.Tuple.AppendKey): an int column is its
// big-endian int64, a string column a uvarint length and its bytes. The
// tree orders keys column by column under the column types New is
// given, which is the order rel.CompareTuples gives the decoded keys.
// The tree is read with encoded keys only: Lookup an exact key, and
// Postings and CountPrefix every key whose leading columns a probe
// encodes, whose types the caller has checked.
//
// A leaf holds its keys back to back in one byte slab and its postings —
// the RIDs stored under each key, in insertion order — back to back in
// one RID slab, with a pair of uint32 end offsets per key; an inner node
// holds its separators as strings. An entry costs its key's bytes, 8
// bytes of offsets and 8 bytes per posting, plus the slabs' spare
// capacity: about 60 bytes for a 30-byte key with two postings
// (TestIndexBytesPerEntry in internal/catalog). TreeStats.Bytes is that
// account, kept as the tree changes.
//
// The tree is persistent: Fork returns a tree that shares every node,
// and the first write to a shared node copies the path from the root to
// it, so each version reads as it did while the other is written. A
// node records which tree made it, and a tree writes in place only the
// nodes it made. Leaves are not linked: a prefix probe climbs back up a
// stack of the nodes its descent passed.
//
// Lookup returns a sub-slice of a leaf's RID slab without copying it. It
// is valid until the next Insert or Delete on the tree, either of which
// may shift the slab under it, and is never written to.
//
// The tree is memory-resident and rebuilt from the heap file when a
// database is reopened (the catalog records index definitions, not index
// pages), which keeps the on-disk format to heap pages only.
package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// degree is the maximum number of keys per node. 64 keeps the tree
// shallow for the table sizes in the paper's experiments (up to ~20k
// tuples) while exercising splits in tests.
const degree = 64

// BTree is a B+tree mapping encoded composite keys to RID postings.
type BTree struct {
	kinds  []rel.Type // the indexed columns' types, in key order
	root   node
	height int
	size   int   // number of (key, rid) pairs, counting duplicates
	keys   int   // number of distinct keys
	bytes  int64 // heap held by the nodes: nodeBytes over all of them

	// own marks the nodes this tree made, the only ones it writes in
	// place; written counts them since the tree was made (New, Empty or
	// Fork): the copies of shared nodes and the nodes splits added.
	own     uint64
	written int

	stats *counters
}

// counters are a tree's traffic counters. searches/depthSum are atomics
// because lookups run concurrently (the server admits parallel readers
// over one tree); splits only moves under write exclusivity but is
// atomic too so a metrics snapshot taken mid-write reads cleanly. A tree
// made by Empty or Fork shares its predecessor's, so an index's counters
// run on across the copy-on-write versions and truncations that replace
// its tree.
type counters struct {
	searches atomic.Int64
	depthSum atomic.Int64
	splits   atomic.Int64
	// marks hands out the node marks of the trees that share the
	// counters, the only trees that can share nodes.
	marks atomic.Uint64
}

// TreeStats is a snapshot of a tree's shape and traffic: structural
// fields (height, distinct keys, total entries, heap bytes held) plus
// cumulative search count, summed search depth (descents visit
// DepthTotal/Searches nodes on average) and node splits.
type TreeStats struct {
	Height     int64 `json:"height"`
	Keys       int64 `json:"keys"`
	Entries    int64 `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Searches   int64 `json:"searches"`
	DepthTotal int64 `json:"depth_total"`
	Splits     int64 `json:"splits"`
}

// Stats snapshots the tree. The structural fields (Height, Keys,
// Entries, Bytes) are maintained by writers without synchronization, so
// a snapshot concurrent with writes needs the same exclusion as tuple
// traffic (the server's testbed lock); the counters are atomic.
func (t *BTree) Stats() TreeStats {
	return TreeStats{
		Height:     int64(t.height),
		Keys:       int64(t.keys),
		Entries:    int64(t.size),
		Bytes:      t.bytes,
		Searches:   t.stats.searches.Load(),
		DepthTotal: t.stats.depthSum.Load(),
		Splits:     t.stats.splits.Load(),
	}
}

type node interface{ isNode() }

// leaf holds entries in key order. Entry i's key is
// keys[ends[i-1].key:ends[i].key] and its postings are
// rids[ends[i-1].rid:ends[i].rid], both starting at 0 for entry 0.
type leaf struct {
	own  uint64 // the mark of the tree that made it
	keys []byte
	rids []storage.RID
	ends []end
}

// end is where one leaf entry's key bytes and postings end.
type end struct{ key, rid uint32 }

type inner struct {
	own uint64 // the mark of the tree that made it
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys     []string
	children []node
}

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// Node sizes for the byte account: a node's header plus its slices'
// capacity, and a separator's bytes.
const (
	leafSize  = int64(unsafe.Sizeof(leaf{}))
	innerSize = int64(unsafe.Sizeof(inner{}))
	ridSize   = int64(unsafe.Sizeof(storage.RID{}))
	endSize   = int64(unsafe.Sizeof(end{}))
	sepSize   = int64(unsafe.Sizeof(""))
	childSize = int64(unsafe.Sizeof(node(nil)))
)

func (lf *leaf) nodeBytes() int64 {
	return leafSize + int64(cap(lf.keys)) + int64(cap(lf.rids))*ridSize + int64(cap(lf.ends))*endSize
}

func (in *inner) nodeBytes() int64 {
	n := innerSize + int64(cap(in.keys))*sepSize + int64(cap(in.children))*childSize
	for _, s := range in.keys {
		n += int64(len(s))
	}
	return n
}

// start is where entry i's key bytes and postings begin.
func (lf *leaf) start(i int) end {
	if i == 0 {
		return end{}
	}
	return lf.ends[i-1]
}

func (lf *leaf) key(i int) []byte { return lf.keys[lf.start(i).key:lf.ends[i].key] }

// postings returns entry i's RIDs, capped so an append cannot reach the
// next entry's.
func (lf *leaf) postings(i int) []storage.RID {
	s, e := lf.start(i).rid, lf.ends[i].rid
	return lf.rids[s:e:e]
}

// New returns an empty tree whose keys encode columns of the given
// types, in order. The tree keeps kinds.
func New(kinds []rel.Type) *BTree { return newTree(kinds, new(counters)) }

// Empty returns an empty tree over the same column types that counts its
// searches, descents and splits in t's counters: the tree that replaces
// t in its index.
func (t *BTree) Empty() *BTree { return newTree(t.kinds, t.stats) }

// Fork returns a tree that shares every node of t and counts its traffic
// in t's counters: the tree that replaces t in its index when the
// table's version is copied. It copies nothing; the first write to a
// node the two share copies that node and those above it into the tree
// that writes. t reads as it did; a write to t after the fork copies
// too, so neither tree ever writes a node the other reads.
func (t *BTree) Fork() *BTree {
	f := &BTree{kinds: t.kinds, root: t.root, height: t.height, size: t.size, keys: t.keys, bytes: t.bytes, own: t.stats.marks.Add(1), stats: t.stats}
	t.own = t.stats.marks.Add(1)
	return f
}

// Written returns the nodes the tree made since New, Empty or Fork
// made it: copies of nodes it shared, and the nodes its splits added.
func (t *BTree) Written() int { return t.written }

func newTree(kinds []rel.Type, stats *counters) *BTree {
	own := stats.marks.Add(1)
	root := &leaf{own: own}
	return &BTree{kinds: kinds, root: root, height: 1, bytes: root.nodeBytes(), own: own, stats: stats}
}

// mut returns n for writing: n itself when t made it, else a copy of it,
// which the caller puts in n's place. A copy has room for one more
// entry.
func (t *BTree) mut(n node) node {
	var cp node
	switch v := n.(type) {
	case *leaf:
		if v.own == t.own {
			return v
		}
		c := &leaf{own: t.own, keys: grown(v.keys, 32), rids: grown(v.rids, 1), ends: grown(v.ends, 1)}
		t.bytes += c.nodeBytes() - v.nodeBytes()
		cp = c
	case *inner:
		if v.own == t.own {
			return v
		}
		c := &inner{own: t.own, keys: grown(v.keys, 1), children: grown(v.children, 1)}
		t.bytes += c.nodeBytes() - v.nodeBytes()
		cp = c
	}
	t.written++
	return cp
}

// grown returns a copy of s with room for extra more elements.
func grown[T any](s []T, extra int) []T { return append(make([]T, 0, len(s)+extra), s...) }

// Len returns the number of (key, rid) entries, counting duplicates.
func (t *BTree) Len() int { return t.size }

// DistinctKeys returns the number of distinct keys.
func (t *BTree) DistinctKeys() int { return t.keys }

// Height returns the tree height (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// compareKeys orders the encoded keys a and b column by column under
// kinds. When one runs out first — a probe on fewer columns — the
// shorter sorts first, as rel.CompareTuples orders tuples.
func compareKeys(kinds []rel.Type, a, b []byte) int {
	for _, k := range kinds {
		if len(a) == 0 || len(b) == 0 {
			break
		}
		if k == rel.TypeInt {
			if c := cmp.Compare(int64(binary.BigEndian.Uint64(a)), int64(binary.BigEndian.Uint64(b))); c != 0 {
				return c
			}
			a, b = a[8:], b[8:]
			continue
		}
		// A length below 128 is its one uvarint byte.
		na, sa := int(a[0]), 1
		if na >= 0x80 {
			na, sa = stringLen(a)
		}
		nb, sb := int(b[0]), 1
		if nb >= 0x80 {
			nb, sb = stringLen(b)
		}
		if c := bytes.Compare(a[sa:sa+na], b[sb:sb+nb]); c != 0 {
			return c
		}
		a, b = a[sa+na:], b[sb+nb:]
	}
	return cmp.Compare(len(a), len(b))
}

// stringLen returns the length of the string column at the front of a
// well-formed key and the bytes its uvarint takes.
func stringLen(key []byte) (n, sz int) {
	v, sz := binary.Uvarint(key)
	return int(v), sz
}

// sep views a separator as bytes for compareKeys, which only reads them.
func sep(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// wellFormed reports whether key is exactly the encoding of one value
// of each of the tree's column types, as AppendKey writes it.
func (t *BTree) wellFormed(key []byte) bool {
	for _, k := range t.kinds {
		if k == rel.TypeInt {
			if len(key) < 8 {
				return false
			}
			key = key[8:]
			continue
		}
		n, sz := binary.Uvarint(key)
		// A multi-byte uvarint ending in a zero group is a longer
		// spelling of a smaller number; AppendKey never writes one.
		if sz <= 0 || (sz > 1 && key[sz-1] == 0) || n > uint64(len(key)-sz) {
			return false
		}
		key = key[sz+int(n):]
	}
	return len(key) == 0
}

// decode returns the tuple a well-formed key encodes.
func (t *BTree) decode(key []byte) rel.Tuple {
	tu := make(rel.Tuple, len(t.kinds))
	for i, k := range t.kinds {
		if k == rel.TypeInt {
			tu[i] = rel.NewInt(int64(binary.BigEndian.Uint64(key)))
			key = key[8:]
			continue
		}
		n, sz := stringLen(key)
		tu[i] = rel.NewString(string(key[sz : sz+n]))
		key = key[sz+n:]
	}
	return tu
}

// search finds the leaf that key belongs to.
func (t *BTree) search(key []byte) *leaf {
	t.stats.searches.Add(1)
	n := t.root
	for depth := int64(1); ; depth++ {
		switch v := n.(type) {
		case *leaf:
			t.stats.depthSum.Add(depth)
			return v
		case *inner:
			n = v.children[t.childFor(v, key)]
		}
	}
}

// searchMut is search for a write: it copies each node on the path that
// t did not make, and returns the leaf, which t owns.
func (t *BTree) searchMut(key []byte) *leaf {
	t.stats.searches.Add(1)
	t.root = t.mut(t.root)
	n := t.root
	for depth := int64(1); ; depth++ {
		switch v := n.(type) {
		case *leaf:
			t.stats.depthSum.Add(depth)
			return v
		case *inner:
			i := t.childFor(v, key)
			child := t.mut(v.children[i])
			v.children[i] = child
			n = child
		}
	}
}

// childFor returns which child of in holds key: the number of
// separators at or below it.
func (t *BTree) childFor(in *inner, key []byte) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareKeys(t.kinds, key, sep(in.keys[mid])) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafPos returns the position of key within lf, and whether it is
// present.
func (t *BTree) leafPos(lf *leaf, key []byte) (int, bool) {
	lo, hi := 0, len(lf.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareKeys(t.kinds, lf.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Keys are canonical: equal keys are equal bytes.
	return lo, lo < len(lf.ends) && bytes.Equal(lf.key(lo), key)
}

// Insert adds a (key, rid) pair, key being the AppendKey encoding of a
// row's indexed columns. Duplicate keys accumulate postings; a
// duplicate (key, rid) pair is rejected. The tree copies the key's bytes
// into a leaf, so the caller's buffer is not retained.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	if !t.wellFormed(key) {
		return fmt.Errorf("index: insert of a key that does not encode %v", t.kinds)
	}
	t.root = t.mut(t.root)
	split, sepKey, err := t.insert(t.root, key, rid)
	if err != nil {
		return err
	}
	if split != nil {
		root := &inner{own: t.own, keys: []string{sepKey}, children: []node{t.root, split}}
		t.root = root
		t.height++
		t.bytes += root.nodeBytes()
		t.written++
	}
	return nil
}

// insert descends into n, which t owns, copying the child it descends
// into unless t owns that too; if n splits, returns the new right
// sibling and the separator key.
func (t *BTree) insert(n node, key []byte, rid storage.RID) (node, string, error) {
	switch v := n.(type) {
	case *leaf:
		return t.insertLeaf(v, key, rid)
	case *inner:
		i := t.childFor(v, key)
		child := t.mut(v.children[i])
		v.children[i] = child
		split, sepKey, err := t.insert(child, key, rid)
		if err != nil || split == nil {
			return nil, "", err
		}
		before := v.nodeBytes()
		v.keys = slices.Insert(v.keys, i, sepKey)
		v.children = slices.Insert(v.children, i+1, split)
		if len(v.keys) <= degree {
			t.bytes += v.nodeBytes() - before
			return nil, "", nil
		}
		// Split inner: middle key moves up.
		t.stats.splits.Add(1)
		mid := len(v.keys) / 2
		upKey := v.keys[mid]
		right := &inner{
			own:      t.own,
			keys:     slices.Clone(v.keys[mid+1:]),
			children: slices.Clone(v.children[mid+1:]),
		}
		v.keys = v.keys[:mid]
		v.children = v.children[:mid+1]
		t.bytes += v.nodeBytes() - before + right.nodeBytes()
		t.written++
		return right, upKey, nil
	}
	return nil, "", fmt.Errorf("index: unknown node type %T", n)
}

// insertLeaf adds (key, rid) to lf; if lf splits, returns the new right
// sibling and the separator key.
func (t *BTree) insertLeaf(lf *leaf, key []byte, rid storage.RID) (node, string, error) {
	before := lf.nodeBytes()
	i, found := t.leafPos(lf, key)
	if found {
		if slices.Contains(lf.postings(i), rid) {
			return nil, "", fmt.Errorf("index: duplicate entry %v -> %s", t.decode(key), rid)
		}
		lf.rids = slices.Insert(lf.rids, int(lf.ends[i].rid), rid)
		for j := i; j < len(lf.ends); j++ {
			lf.ends[j].rid++
		}
		t.size++
		t.bytes += lf.nodeBytes() - before
		return nil, "", nil
	}
	s := lf.start(i)
	lf.keys = slices.Insert(lf.keys, int(s.key), key...)
	lf.rids = slices.Insert(lf.rids, int(s.rid), rid)
	lf.ends = slices.Insert(lf.ends, i, s)
	for j := i; j < len(lf.ends); j++ {
		lf.ends[j].key += uint32(len(key))
		lf.ends[j].rid++
	}
	t.size++
	t.keys++
	if len(lf.ends) <= degree {
		t.bytes += lf.nodeBytes() - before
		return nil, "", nil
	}
	t.stats.splits.Add(1)
	right := lf.split(len(lf.ends) / 2)
	right.own = t.own
	t.bytes += lf.nodeBytes() - before + right.nodeBytes()
	t.written++
	return right, string(right.key(0)), nil
}

// split moves entries mid onwards to a new right sibling and returns it.
func (lf *leaf) split(mid int) *leaf {
	at := lf.ends[mid-1]
	right := &leaf{
		keys: slices.Clone(lf.keys[at.key:]),
		rids: slices.Clone(lf.rids[at.rid:]),
		ends: slices.Clone(lf.ends[mid:]),
	}
	for j := range right.ends {
		right.ends[j].key -= at.key
		right.ends[j].rid -= at.rid
	}
	lf.keys, lf.rids, lf.ends = lf.keys[:at.key], lf.rids[:at.rid], lf.ends[:mid]
	return right
}

// Trim reallocates the slabs of every leaf the tree made to their
// length, returning the spare capacity the appends of a bulk fill leave
// behind (up to half of each slab): the catalog calls it once an index
// is built from its heap. Later inserts grow the slabs again as they
// need.
func (t *BTree) Trim() { t.trim(t.root) }

func (t *BTree) trim(n node) {
	switch v := n.(type) {
	case *leaf:
		if v.own == t.own {
			before := v.nodeBytes()
			v.keys, v.rids, v.ends = slices.Clone(v.keys), slices.Clone(v.rids), slices.Clone(v.ends)
			t.bytes += v.nodeBytes() - before
		}
	case *inner:
		// Below a node the tree did not make, it made none.
		if v.own == t.own {
			for _, c := range v.children {
				t.trim(c)
			}
		}
	}
}

// Delete removes a (key, rid) pair, key encoded as for Insert. It
// returns an error if the pair is absent. Underfull nodes are tolerated
// (no rebalancing): the testbed's delete traffic is table truncation and
// temp-table teardown, which drop whole indexes; point deletes only need
// correctness, and lookups remain O(log n) since keys stay ordered.
func (t *BTree) Delete(key []byte, rid storage.RID) error {
	if !t.wellFormed(key) {
		return fmt.Errorf("index: delete of a key that does not encode %v", t.kinds)
	}
	lf := t.searchMut(key)
	i, found := t.leafPos(lf, key)
	if !found {
		return fmt.Errorf("index: delete of absent key %v", t.decode(key))
	}
	s, e := lf.start(i), lf.ends[i]
	p := slices.Index(lf.rids[s.rid:e.rid], rid)
	if p < 0 {
		return fmt.Errorf("index: delete of absent rid %s under key %v", rid, t.decode(key))
	}
	lf.rids = slices.Delete(lf.rids, int(s.rid)+p, int(s.rid)+p+1)
	for j := i; j < len(lf.ends); j++ {
		lf.ends[j].rid--
	}
	t.size--
	if lf.ends[i].rid == s.rid {
		n := e.key - s.key
		lf.keys = slices.Delete(lf.keys, int(s.key), int(e.key))
		lf.ends = slices.Delete(lf.ends, i, i+1)
		for j := i; j < len(lf.ends); j++ {
			lf.ends[j].key -= n
		}
		t.keys--
	}
	return nil
}

// Lookup returns the postings of the key enc encodes, as Insert takes
// it, nil if absent. The slice is the tree's own: the caller reads it
// before the next Insert or Delete and does not modify it.
func (t *BTree) Lookup(enc []byte) []storage.RID {
	lf := t.search(enc)
	i, found := t.leafPos(lf, enc)
	if !found {
		return nil
	}
	return lf.postings(i)
}

// CountPrefix returns how many postings Postings(enc) passes, without
// reading them: the planner's estimate of an index scan.
func (t *BTree) CountPrefix(enc []byte) int {
	n := 0
	t.eachPrefix(enc, func(lf *leaf, i int) bool {
		n += len(lf.postings(i))
		return true
	})
	return n
}

// Postings calls fn with the postings of every key whose leading
// columns are enc, in key order, until fn returns an error: an empty
// enc passes every key's. enc must encode values of the tree's leading
// column types, as a stored record's columns do; the caller checks the
// types. It counts one descent and collects nothing. The postings are
// the tree's own, as Lookup's.
func (t *BTree) Postings(enc []byte, fn func(rids []storage.RID) error) error {
	var err error
	t.eachPrefix(enc, func(lf *leaf, i int) bool {
		err = fn(lf.postings(i))
		return err == nil
	})
	return err
}

// eachPrefix calls fn with the leaf and position of every entry whose
// key starts with enc, in key order, until fn returns false. Encoded
// keys are self-delimiting and canonical, so a key's leading columns
// equal enc's exactly when its bytes start with enc.
func (t *BTree) eachPrefix(enc []byte, fn func(lf *leaf, i int) bool) {
	var c cursor
	t.seek(&c, enc)
	i, _ := t.leafPos(c.lf, enc)
	for ; c.lf != nil; c.next() {
		for ; i < len(c.lf.ends); i++ {
			if !bytes.HasPrefix(c.lf.key(i), enc) || !fn(c.lf, i) {
				return
			}
		}
		i = 0
	}
}

// maxHeight bounds a tree's height: a node a split makes holds at least
// 33 children, and deletes remove no node, so a tree of degree 64 needs
// more than 2·33^6 leaves, 10^10 keys, to reach it.
const maxHeight = 8

// cursor is a position in a tree's leaves: the leaf, and the inner
// nodes above it with the child taken at each, through which it moves
// on to the next leaf.
type cursor struct {
	lf    *leaf // nil past the last leaf
	path  [maxHeight]step
	depth int
}

type step struct {
	in *inner
	i  int
}

// seek descends to the leaf key belongs to, counting one search.
func (t *BTree) seek(c *cursor, key []byte) {
	t.stats.searches.Add(1)
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			break
		}
		i := t.childFor(in, key)
		c.path[c.depth] = step{in, i}
		c.depth++
		n = in.children[i]
	}
	t.stats.depthSum.Add(int64(c.depth + 1))
	c.lf = n.(*leaf)
}

// first descends from n to its leftmost leaf.
func (c *cursor) first(n node) {
	for {
		in, ok := n.(*inner)
		if !ok {
			c.lf = n.(*leaf)
			return
		}
		c.path[c.depth] = step{in, 0}
		c.depth++
		n = in.children[0]
	}
}

// next moves to the leaf after the cursor's, or past the last.
func (c *cursor) next() {
	for c.depth > 0 {
		s := &c.path[c.depth-1]
		if s.i+1 < len(s.in.children) {
			s.i++
			c.first(s.in.children[s.i])
			return
		}
		c.depth--
	}
	c.lf = nil
}

// Validate checks structural invariants (well-formed keys, ordering,
// separator bounds, leaf offsets, the counts, the byte account, and
// that a node the tree made hangs only below nodes it made) and returns
// the first violation found. Test support.
func (t *BTree) Validate() error {
	var prevKey []byte
	count, distinct := 0, 0
	var held int64
	var walk func(n node, lo, hi []byte, mine bool) error
	walk = func(n node, lo, hi []byte, mine bool) error {
		switch v := n.(type) {
		case *leaf:
			held += v.nodeBytes()
			if v.own == t.own && !mine {
				return fmt.Errorf("index: a leaf the tree made below a node it shares")
			}
			if len(v.ends) > degree {
				return fmt.Errorf("index: leaf of %d keys", len(v.ends))
			}
			for i, e := range v.ends {
				s := v.start(i)
				if e.key < s.key || int(e.key) > len(v.keys) || e.rid <= s.rid || int(e.rid) > len(v.rids) {
					return fmt.Errorf("index: leaf entry %d ends at %+v after %+v, slabs of %d and %d", i, e, s, len(v.keys), len(v.rids))
				}
				k := v.key(i)
				if !t.wellFormed(k) {
					return fmt.Errorf("index: malformed key %x", k)
				}
				if prevKey != nil && compareKeys(t.kinds, prevKey, k) >= 0 {
					return fmt.Errorf("index: keys out of order at %v", t.decode(k))
				}
				if lo != nil && compareKeys(t.kinds, k, lo) < 0 {
					return fmt.Errorf("index: key %v below subtree bound %v", t.decode(k), t.decode(lo))
				}
				if hi != nil && compareKeys(t.kinds, k, hi) >= 0 {
					return fmt.Errorf("index: key %v above subtree bound %v", t.decode(k), t.decode(hi))
				}
				prevKey = k
				distinct++
				count += int(e.rid - s.rid)
			}
			if last := v.start(len(v.ends)); int(last.key) != len(v.keys) || int(last.rid) != len(v.rids) {
				return fmt.Errorf("index: leaf slabs of %d and %d past the last entry's end %+v", len(v.keys), len(v.rids), last)
			}
			return nil
		case *inner:
			held += v.nodeBytes()
			if v.own == t.own && !mine {
				return fmt.Errorf("index: an inner node the tree made below a node it shares")
			}
			if len(v.children) != len(v.keys)+1 {
				return fmt.Errorf("index: inner node with %d keys, %d children", len(v.keys), len(v.children))
			}
			for i, c := range v.children {
				cl, ch := lo, hi
				if i > 0 {
					cl = sep(v.keys[i-1])
				}
				if i < len(v.keys) {
					ch = sep(v.keys[i])
				}
				if err := walk(c, cl, ch, v.own == t.own); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("index: unknown node type %T", n)
	}
	if err := walk(t.root, nil, nil, true); err != nil {
		return err
	}
	if count != t.size || distinct != t.keys {
		return fmt.Errorf("index: size mismatch: counted %d/%d, recorded %d/%d", count, distinct, t.size, t.keys)
	}
	if held != t.bytes {
		return fmt.Errorf("index: nodes hold %d bytes, account says %d", held, t.bytes)
	}
	return nil
}
