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

// visit is one key and its postings as an ordered walk yields them.
type visit struct {
	key  string
	rids []storage.RID
}

// walk is the model's AscendRange(lo, hi).
func (m *btreeModel) walk(lo, hi rel.Tuple) []visit {
	var out []visit
	for i, k := range m.keys {
		if (lo == nil || rel.CompareTuples(k, lo) >= 0) && (hi == nil || rel.CompareTuples(k, hi) < 0) {
			out = append(out, visit{k.String(), m.rids[i]})
		}
	}
	return out
}

// prefix is the model's LookupPrefix.
func (m *btreeModel) prefix(p rel.Tuple) []storage.RID {
	var out []storage.RID
	for i, k := range m.keys {
		if rel.CompareTuples(k[:len(p)], p) == 0 {
			out = append(out, m.rids[i]...)
		}
	}
	return out
}

func treeWalk(tr *BTree, lo, hi rel.Tuple) []visit {
	var out []visit
	tr.AscendRange(lo, hi, func(k rel.Tuple, rids []storage.RID) bool {
		out = append(out, visit{k.String(), slices.Clone(rids)})
		return true
	})
	return out
}

func sameVisits(a, b []visit) bool {
	return slices.EqualFunc(a, b, func(x, y visit) bool { return x.key == y.key && slices.Equal(x.rids, y.rids) })
}

// FuzzBTreeOps runs a sequence of inserts, deletes, bulk inserts and
// forks over (int, string) keys against a sorted reference and, after
// every step, checks the structure (Validate), the counts, the probes
// (Lookup, LookupPrefix, CountPrefix, each one counted search of Height
// nodes, a probe of the wrong types matching nothing) and the ordered
// walks (AscendRange, whole and bounded). A fork freezes the tree, and
// the steps go on over the fork, which shares its nodes; the frozen tree
// must read as it did, whatever the later steps write.
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
		var srcWalk []visit
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
				src, srcWalk = tr, treeWalk(tr, nil, nil)
				tr = tr.Fork()
			}
			checkTree(t, step, tr, &m, k)
			if src != nil {
				if err := src.Validate(); err != nil {
					t.Fatalf("step %d: the frozen tree: %v", step, err)
				}
				if got := treeWalk(src, nil, nil); !sameVisits(got, srcWalk) {
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
	probes := []struct {
		name string
		got  func() any
		want any
	}{
		{"Lookup", func() any { return slices.Clone(tr.Lookup(k)) }, want},
		{"LookupPrefix", func() any { return tr.LookupPrefix(k[:1]) }, m.prefix(k[:1])},
		{"CountPrefix(1)", func() any { return tr.CountPrefix(k[:1]) }, len(m.prefix(k[:1]))},
		{"CountPrefix(2)", func() any { return tr.CountPrefix(k) }, len(want)},
		{"Lookup(wrong types)", func() any { return tr.Lookup(rel.Tuple{k[1], k[0]}) }, []storage.RID(nil)},
		{"CountPrefix(wrong type)", func() any { return tr.CountPrefix(k[1:]) }, 0},
		{"Lookup(too long)", func() any { return tr.Lookup(append(slices.Clone(k), k[0])) }, []storage.RID(nil)},
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
	if got, want := treeWalk(tr, nil, nil), m.walk(nil, nil); !sameVisits(got, want) {
		t.Fatalf("step %d: AscendRange(nil, nil) = %v, want %v", step, got, want)
	}
	// From k to the key that follows k's string at k's int, and from
	// k's int alone to the end.
	hi := rel.Tuple{k[0], rel.NewString(k[1].Str + "\x00")}
	if got, want := treeWalk(tr, k, hi), m.walk(k, hi); !sameVisits(got, want) {
		t.Fatalf("step %d: AscendRange(%v, %v) = %v, want %v", step, k, hi, got, want)
	}
	if got, want := treeWalk(tr, k[:1], nil), m.walk(k[:1], nil); !sameVisits(got, want) {
		t.Fatalf("step %d: AscendRange(%v, nil) = %v, want %v", step, k[:1], got, want)
	}
}

func equalProbe(got, want any) bool {
	if g, ok := got.([]storage.RID); ok {
		return slices.Equal(g, want.([]storage.RID))
	}
	return got == want
}
