package index

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// fuzzInts and fuzzStrings are the column values FuzzBTreeOps draws
// from besides small ints: the int64 extremes, whose big-endian bytes
// order differently from their values, and strings that are empty,
// prefixes of one another, or 128 bytes and longer (two-byte lengths).
var (
	fuzzInts = []int64{
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		-1 << 31, 1 << 31, -1 << 32, 1 << 32, 255, 256, -256, 1 << 56,
		-1 << 56, 0, -1, 1,
	}
	fuzzStrings = []string{
		"", "a", "ab", "abc", "b", "ba", "\x00", "\xff",
		strings.Repeat("x", 127), strings.Repeat("x", 128), strings.Repeat("x", 129),
		strings.Repeat("x", 128) + "a", strings.Repeat("x", 300), "x", "xx", "a\x00",
	}
)

func fuzzInt(b byte) int64 {
	if b&0x80 != 0 {
		return fuzzInts[int(b)%len(fuzzInts)]
	}
	return int64(b) - 64
}

func fuzzKey(ib, sb byte) rel.Tuple {
	return rel.Tuple{rel.NewInt(fuzzInt(ib)), rel.NewString(fuzzStrings[int(sb)%len(fuzzStrings)])}
}

func fuzzRID(b byte) storage.RID { return storage.RID{Page: uint32(b >> 3), Slot: uint16(b & 7)} }

// btreeModel is the reference FuzzBTreeOps holds the tree to: each key's
// postings in insertion order, kept sorted by rel.CompareTuples.
type btreeModel struct {
	keys  []rel.Tuple
	rids  [][]storage.RID
	total int
}

func (m *btreeModel) find(k rel.Tuple) (int, bool) {
	return slices.BinarySearchFunc(m.keys, k, rel.CompareTuples)
}

// insert reports whether (k, rid) was new.
func (m *btreeModel) insert(k rel.Tuple, rid storage.RID) bool {
	i, ok := m.find(k)
	if !ok {
		m.keys = slices.Insert(m.keys, i, k)
		m.rids = slices.Insert(m.rids, i, nil)
	} else if slices.Contains(m.rids[i], rid) {
		return false
	}
	m.rids[i] = append(m.rids[i], rid)
	m.total++
	return true
}

// delete reports whether (k, rid) was present.
func (m *btreeModel) delete(k rel.Tuple, rid storage.RID) bool {
	i, ok := m.find(k)
	if !ok {
		return false
	}
	j := slices.Index(m.rids[i], rid)
	if j < 0 {
		return false
	}
	m.rids[i] = slices.Delete(m.rids[i], j, j+1)
	if len(m.rids[i]) == 0 {
		m.keys = slices.Delete(m.keys, i, i+1)
		m.rids = slices.Delete(m.rids, i, i+1)
	}
	m.total--
	return true
}

// prefix is the model's Postings(p), collected.
func (m *btreeModel) prefix(p rel.Tuple) []storage.RID {
	var out []storage.RID
	for i, k := range m.keys {
		if rel.CompareTuples(k[:len(p)], p) == 0 {
			out = append(out, m.rids[i]...)
		}
	}
	return out
}

// treeWalk returns what Postings(nil, …) passes: each key's postings,
// in key order, each in a slice of its own.
func treeWalk(tr *BTree) [][]storage.RID {
	var out [][]storage.RID
	tr.Postings(nil, func(rids []storage.RID) error {
		out = append(out, slices.Clone(rids))
		return nil
	})
	return out
}

func sameWalks(a, b [][]storage.RID) bool { return slices.EqualFunc(a, b, slices.Equal[[]storage.RID]) }

// FuzzBTreeOps runs a sequence of inserts, deletes, bulk inserts and
// forks over (int, string) keys — the int64 extremes, and empty, prefix
// and two-byte-length strings among them (fuzzInts, fuzzStrings) —
// against a sorted reference and, after
// every step, checks the structure (Validate), the counts, the encoded
// probes (Lookup of a full key and of one too long, Postings and
// CountPrefix of a full key and of a one-column prefix, each one counted
// search of Height nodes) and the whole-tree walk (Postings(nil, …),
// whose postings come key by key in key order). A fork freezes the
// tree, and the steps go on over the fork, which shares its nodes; the
// frozen tree must read as it did, whatever the later steps write.
// Each step is four bytes: the operation, the int and string of its
// key, and a RID.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 4, 1, 1, 2, 3})
	f.Add([]byte{3, 0x80, 1, 0, 3, 0x81, 9, 1, 1, 0x80, 1, 0, 0, 0x82, 12, 7})
	f.Add([]byte{3, 10, 0, 0, 3, 10, 8, 0, 3, 10, 9, 0, 2, 10, 10, 0})
	f.Add([]byte{3, 10, 0, 1, 4, 3, 0, 5, 0, 12, 0, 6, 1, 10, 0, 0, 3, 40, 0, 2, 4, 1, 0, 1, 1, 11, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New([]rel.Type{rel.TypeInt, rel.TypeString})
		var m btreeModel
		// The tree last forked, frozen, and what it held then.
		var src *BTree
		var srcWalk [][]storage.RID
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op, k, rid := data[0]%5, fuzzKey(data[1], data[2]), fuzzRID(data[3])
			switch op {
			case 0: // insert
				if fresh, err := m.insert(k, rid), tr.Insert(enc(k), rid); fresh != (err == nil) {
					t.Fatalf("step %d: Insert(%v, %s) = %v, model says new = %v", step, k, rid, err, fresh)
				}
			case 1: // delete one of the key's postings, or an absent one
				if i, ok := m.find(k); ok && data[3]&0x40 == 0 {
					rid = m.rids[i][int(data[3])%len(m.rids[i])]
				}
				if had, err := m.delete(k, rid), tr.Delete(enc(k), rid); had != (err == nil) {
					t.Fatalf("step %d: Delete(%v, %s) = %v, model says present = %v", step, k, rid, err, had)
				}
			case 2: // probe only
			case 3: // bulk: 70 keys sharing k's string, enough for a split
				for j := 0; j < 70; j++ {
					kj := rel.Tuple{rel.NewInt(k[0].Int + int64(j)), k[1]}
					if k[0].Int > math.MaxInt64-70 {
						kj[0] = rel.NewInt(k[0].Int - int64(j))
					}
					if fresh, err := m.insert(kj, rid), tr.Insert(enc(kj), rid); fresh != (err == nil) {
						t.Fatalf("step %d: bulk Insert(%v, %s) = %v, model says new = %v", step, kj, rid, err, fresh)
					}
				}
			case 4: // freeze-and-continue: the steps go on over a fork
				src, srcWalk = tr, treeWalk(tr)
				tr = tr.Fork()
			}
			checkTree(t, step, tr, &m, k)
			if src != nil {
				if err := src.Validate(); err != nil {
					t.Fatalf("step %d: the frozen tree: %v", step, err)
				}
				if got := treeWalk(src); !sameWalks(got, srcWalk) {
					t.Fatalf("step %d: the frozen tree reads %v, held %v", step, got, srcWalk)
				}
			}
		}
	})
}

// checkTree holds tr to m after a step whose key was k.
func checkTree(t *testing.T, step int, tr *BTree, m *btreeModel, k rel.Tuple) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if tr.Len() != m.total || tr.DistinctKeys() != len(m.keys) {
		t.Fatalf("step %d: tree holds %d entries under %d keys, model %d under %d", step, tr.Len(), tr.DistinctKeys(), m.total, len(m.keys))
	}
	var want []storage.RID
	if i, ok := m.find(k); ok {
		want = m.rids[i]
	}
	key, prefix := enc(k), enc(k[:1])
	probes := []struct {
		name string
		got  func() any
		want any
	}{
		{"Lookup", func() any { return slices.Clone(tr.Lookup(key)) }, want},
		{"Lookup(too long)", func() any { return tr.Lookup(append(slices.Clone(key), prefix...)) }, []storage.RID(nil)},
		{"Postings(1)", func() any { return postings(tr, prefix) }, m.prefix(k[:1])},
		{"Postings(2)", func() any { return postings(tr, key) }, slices.Clone(want)},
		{"CountPrefix(1)", func() any { return tr.CountPrefix(prefix) }, len(m.prefix(k[:1]))},
		{"CountPrefix(2)", func() any { return tr.CountPrefix(key) }, len(want)},
	}
	for _, p := range probes {
		before := tr.Stats()
		got := p.got()
		after := tr.Stats()
		if !equalProbe(got, p.want) {
			t.Fatalf("step %d: %s(%v) = %v, want %v", step, p.name, k, got, p.want)
		}
		if after.Searches-before.Searches != 1 || after.DepthTotal-before.DepthTotal != after.Height {
			t.Fatalf("step %d: %s counted %d searches of %d nodes, want 1 of %d", step, p.name,
				after.Searches-before.Searches, after.DepthTotal-before.DepthTotal, after.Height)
		}
	}
	// The model's rids are each key's postings, in key order.
	if got := treeWalk(tr); !sameWalks(got, m.rids) {
		t.Fatalf("step %d: Postings(nil) = %v, want %v", step, got, m.rids)
	}
}

func equalProbe(got, want any) bool {
	if g, ok := got.([]storage.RID); ok {
		return slices.Equal(g, want.([]storage.RID))
	}
	return got == want
}
