package index

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

func intKey(vs ...int64) rel.Tuple {
	t := make(rel.Tuple, len(vs))
	for i, v := range vs {
		t[i] = rel.NewInt(v)
	}
	return t
}

// ints returns the column types of an n-column int key.
func ints(n int) []rel.Type {
	kinds := make([]rel.Type, n)
	for i := range kinds {
		kinds[i] = rel.TypeInt
	}
	return kinds
}

// enc encodes a key tuple as the catalog does.
func enc(k rel.Tuple) []byte { return k.AppendKey(nil, nil) }

func ridFor(i int) storage.RID {
	return storage.RID{Page: uint32(i / 100), Slot: uint16(i % 100)}
}

func TestBTreeInsertLookup(t *testing.T) {
	tr := New(ints(1))
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(enc(intKey(int64(i))), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 || tr.DistinctKeys() != 1000 {
		t.Fatalf("len=%d keys=%d", tr.Len(), tr.DistinctKeys())
	}
	if tr.Height() < 2 {
		t.Fatal("expected splits at 1000 keys")
	}
	for i := 0; i < 1000; i += 17 {
		rids := tr.Lookup(enc(intKey(int64(i))))
		if len(rids) != 1 || rids[0] != ridFor(i) {
			t.Fatalf("lookup %d = %v", i, rids)
		}
	}
	if tr.Lookup(enc(intKey(5000))) != nil {
		t.Fatal("lookup of absent key returned postings")
	}
}

func TestBTreeDuplicatePostings(t *testing.T) {
	tr := New(ints(1))
	key := intKey(7)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(enc(key), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 50 || tr.DistinctKeys() != 1 {
		t.Fatalf("len=%d keys=%d", tr.Len(), tr.DistinctKeys())
	}
	if got := tr.Lookup(enc(key)); len(got) != 50 {
		t.Fatalf("postings = %d", len(got))
	}
	// Exact duplicate (key, rid) rejected.
	if err := tr.Insert(enc(key), ridFor(3)); err == nil {
		t.Fatal("duplicate (key,rid) accepted")
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := New(ints(1))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(enc(intKey(int64(i%100))), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete(enc(intKey(int64(i%100))), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 250 {
		t.Fatalf("len after deletes = %d", tr.Len())
	}
	if err := tr.Delete(enc(intKey(0)), ridFor(0)); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := tr.Delete(enc(intKey(9999)), ridFor(0)); err == nil {
		t.Fatal("delete of absent key accepted")
	}
}

func TestBTreeCompositePrefix(t *testing.T) {
	tr := New(ints(2))
	n := 0
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 20; b++ {
			if err := tr.Insert(enc(intKey(a, b)), ridFor(n)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n := tr.CountPrefix(enc(intKey(3))); n != 20 {
		t.Fatalf("prefix count %d, want 20", n)
	}
	// (7, b) is stored at ridFor(7*20 + b): the postings come in key order.
	if got, want := postings(tr, enc(intKey(7))), ridRange(140, 160); !slices.Equal(got, want) {
		t.Fatalf("prefix postings %v, want %v", got, want)
	}
	// Full lookup on composite key.
	if got := tr.Lookup(enc(intKey(7, 5))); len(got) != 1 {
		t.Fatalf("composite lookup = %v", got)
	}
}

// postings returns the postings Postings(prefix) passes, in order, in
// a slice of their own.
func postings(tr *BTree, prefix []byte) []storage.RID {
	var out []storage.RID
	tr.Postings(prefix, func(rids []storage.RID) error {
		out = append(out, rids...)
		return nil
	})
	return out
}

// ridRange returns ridFor(i) for i in [lo, hi).
func ridRange(lo, hi int) []storage.RID {
	var out []storage.RID
	for i := lo; i < hi; i++ {
		out = append(out, ridFor(i))
	}
	return out
}

func TestBTreeStringKeys(t *testing.T) {
	tr := New([]rel.Type{rel.TypeString})
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		if err := tr.Insert(enc(rel.Tuple{rel.NewString(w)}), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	// words[i] is stored at ridFor(i): a whole walk yields them in order.
	var got []string
	for _, rid := range postings(tr, nil) {
		got = append(got, words[int(rid.Slot)])
	}
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestBTreeRandomizedAgainstModel(t *testing.T) {
	// Model-based test: tree must agree with a map[key][]rid model under
	// random inserts and deletes, and stay structurally valid throughout.
	tr := New(ints(2))
	model := make(map[string][]storage.RID)
	keyOf := make(map[string]rel.Tuple)
	r := rand.New(rand.NewSource(7))
	nextRID := 0
	for op := 0; op < 8000; op++ {
		k := intKey(int64(r.Intn(200)), int64(r.Intn(5)))
		ks := k.Key()
		if r.Intn(3) > 0 || len(model[ks]) == 0 {
			rid := ridFor(nextRID)
			nextRID++
			if err := tr.Insert(enc(k), rid); err != nil {
				t.Fatal(err)
			}
			model[ks] = append(model[ks], rid)
			keyOf[ks] = k
		} else {
			rids := model[ks]
			rid := rids[r.Intn(len(rids))]
			if err := tr.Delete(enc(k), rid); err != nil {
				t.Fatal(err)
			}
			for j, x := range rids {
				if x == rid {
					model[ks] = append(rids[:j], rids[j+1:]...)
					break
				}
			}
			if len(model[ks]) == 0 {
				delete(model, ks)
				delete(keyOf, ks)
			}
		}
		if op%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.DistinctKeys() != len(model) {
		t.Fatalf("distinct keys %d, model %d", tr.DistinctKeys(), len(model))
	}
	for ks, want := range model {
		got := tr.Lookup(enc(keyOf[ks]))
		if len(got) != len(want) {
			t.Fatalf("key %s: %d postings, want %d", ks, len(got), len(want))
		}
		gotSet := make(map[storage.RID]bool, len(got))
		for _, rid := range got {
			gotSet[rid] = true
		}
		for _, rid := range want {
			if !gotSet[rid] {
				t.Fatalf("key %s missing rid %s", ks, rid)
			}
		}
	}
}

func TestBTreeDescendingInsertOrder(t *testing.T) {
	tr := New(ints(1))
	for i := 999; i >= 0; i-- {
		if err := tr.Insert(enc(intKey(int64(i))), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := postings(tr, nil), ridRange(0, 1000); !slices.Equal(got, want) {
		t.Fatalf("a whole walk yields %v, want key i's ridFor(i) in key order", got)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr := New(ints(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Insert(enc(intKey(int64(i))), ridFor(i))
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	tr := New(ints(1))
	for i := 0; i < 100000; i++ {
		_ = tr.Insert(enc(intKey(int64(i))), ridFor(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	var key [8]byte
	for i := 0; i < b.N; i++ {
		_ = tr.Lookup(intKey(int64(i%100000)).AppendKey(key[:0], nil))
	}
}

func ExampleBTree() {
	tr := New([]rel.Type{rel.TypeString, rel.TypeInt})
	_ = tr.Insert(enc(rel.Tuple{rel.NewString("ann"), rel.NewInt(1)}), storage.RID{Page: 0, Slot: 0})
	_ = tr.Insert(enc(rel.Tuple{rel.NewString("bob"), rel.NewInt(2)}), storage.RID{Page: 0, Slot: 1})
	tr.Postings(enc(rel.Tuple{rel.NewString("ann")}), func(rids []storage.RID) error {
		fmt.Println(rids)
		return nil
	})
	fmt.Println(tr.CountPrefix(nil), tr.Lookup(enc(rel.Tuple{rel.NewString("bob"), rel.NewInt(2)})))
	// Output:
	// [0:0]
	// 2 [0:1]
}

func TestTreeStats(t *testing.T) {
	tr := New(ints(1))
	if st := tr.Stats(); st.Height != 1 || st.Entries != 0 || st.Splits != 0 {
		t.Fatalf("empty tree stats = %+v", st)
	}
	// Enough keys to force splits (degree is 64).
	for i := 0; i < 200; i++ {
		if err := tr.Insert(enc(rel.Tuple{rel.NewInt(int64(i))}), storage.RID{Page: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	base := tr.Stats()
	if base.Height != int64(tr.Height()) || base.Entries != 200 || base.Keys != 200 {
		t.Fatalf("stats shape = %+v", base)
	}
	if base.Splits == 0 {
		t.Fatal("200 inserts at degree 64 must split at least once")
	}
	tr.Lookup(enc(rel.Tuple{rel.NewInt(7)}))
	tr.Lookup(enc(rel.Tuple{rel.NewInt(8)}))
	st := tr.Stats()
	if got := st.Searches - base.Searches; got != 2 {
		t.Fatalf("searches delta = %d, want 2", got)
	}
	// Each lookup descends Height nodes.
	if got := st.DepthTotal - base.DepthTotal; got != 2*base.Height {
		t.Fatalf("depth delta = %d, want %d", got, 2*base.Height)
	}
}

// TestLookupAllocs pins the encoded probes at no allocation: Lookup
// returns the leaf's own postings, and CountPrefix and Postings read the
// slabs in place.
func TestLookupAllocs(t *testing.T) {
	tr := New([]rel.Type{rel.TypeString, rel.TypeInt})
	for i := 0; i < 1000; i++ {
		k := rel.Tuple{rel.NewString(fmt.Sprintf("genealogy_person_%d", i%300)), rel.NewInt(int64(i))}
		if err := tr.Insert(enc(k), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	tu := rel.Tuple{rel.NewString("genealogy_person_17"), rel.NewInt(317)}
	key, prefix := enc(tu), enc(tu[:1])
	if got := tr.Lookup(key); len(got) != 1 || got[0] != ridFor(317) {
		t.Fatalf("Lookup(%v) = %v", tu, got)
	}
	if got := tr.CountPrefix(prefix); got != 4 {
		t.Fatalf("CountPrefix(%v) = %d, want 4", tu[:1], got)
	}
	n := 0
	count := func(rids []storage.RID) error { n += len(rids); return nil }
	if tr.Postings(prefix, count); n != 4 {
		t.Fatalf("Postings(%v) passed %d, want 4", tu[:1], n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Lookup(key) }); n != 0 {
		t.Errorf("Lookup allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.CountPrefix(prefix) }); n != 0 {
		t.Errorf("CountPrefix allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Postings(prefix, count) }); n != 0 {
		t.Errorf("Postings allocates %.1f objects, want 0", n)
	}
}

// TestForkCopiesOnlyThePath: a fork of a tree that split, and lost
// entries to deletes, shares every node and answers as the source does;
// a write to it copies the nodes on the path to the leaf it writes and
// no other, a second write on another path copies only the nodes not
// copied yet; and inserts and deletes on the fork, and then on the
// source, leave every answer of the other as it was.
func TestForkCopiesOnlyThePath(t *testing.T) {
	tr := New([]rel.Type{rel.TypeInt, rel.TypeString})
	key := func(i int) []byte {
		return enc(rel.Tuple{rel.NewInt(int64(i % 300)), rel.NewString(fmt.Sprint("k", i%7))})
	}
	rid := func(i int) storage.RID { return storage.RID{Page: uint32(i / 50), Slot: uint16(i % 50)} }
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 3 {
		if err := tr.Delete(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Stats()
	walk, held := treeWalk(tr), lookups(tr)
	f := tr.Fork()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := treeWalk(f); !sameWalks(got, walk) || f.Len() != tr.Len() || f.Height() != tr.Height() || f.Stats().Bytes != before.Bytes {
		t.Fatalf("the fork holds %d entries of height %d in %d bytes; source %d, %d, %d", f.Len(), f.Height(), f.Stats().Bytes, tr.Len(), tr.Height(), before.Bytes)
	}
	if f.Written() != 0 || tr.Height() < 2 {
		t.Fatalf("a fork wrote %d nodes; the source is %d high, want 2 or more", f.Written(), tr.Height())
	}
	// A new posting under a key the tree holds adds no entry, so no
	// split: the write copies the root-to-leaf path.
	if err := f.Insert(key(1), rid(5000)); err != nil {
		t.Fatal(err)
	}
	if f.Written() != f.Height() {
		t.Fatalf("a write to one leaf copied %d nodes of a tree %d high", f.Written(), f.Height())
	}
	if err := f.Delete(key(299), rid(299)); err != nil {
		t.Fatal(err)
	}
	if w := f.Written(); w <= f.Height() || w > 2*f.Height()-1 {
		t.Fatalf("a write to a second leaf brought the copies to %d in a tree %d high", w, f.Height())
	}
	if s := f.Stats(); s.Searches <= before.Searches || s.Splits != before.Splits {
		t.Errorf("the fork counts %+v, not in its source's %+v", s, before)
	}

	// Write the fork hard: new keys that split its leaves, then delete
	// the postings it shares under keys below 150.
	for i := 2000; i < 3000; i++ {
		if err := f.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if i%3 != 0 && i%300 < 150 && i != 299 {
			if err := f.Delete(key(i), rid(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("source after writes to the fork: %v", err)
	}
	if after := treeWalk(tr); !sameWalks(after, walk) {
		t.Fatal("writes to the fork changed the source's postings")
	}
	if got := lookups(tr); !maps.EqualFunc(got, held, slices.Equal) {
		t.Fatal("writes to the fork changed the source's lookups")
	}

	// The source, written after the fork, copies too.
	forked := lookups(f)
	for i := 3000; i < 3500; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := lookups(f); !maps.EqualFunc(got, forked, slices.Equal) {
		t.Fatal("writes to the source changed the fork's lookups")
	}
}

// lookups returns Lookup of every key TestForkCopiesOnlyThePath writes,
// by key, each in a slice of its own.
func lookups(tr *BTree) map[string][]storage.RID {
	out := make(map[string][]storage.RID)
	for i := 0; i < 300; i++ {
		for s := 0; s < 7; s++ {
			k := rel.Tuple{rel.NewInt(int64(i)), rel.NewString(fmt.Sprint("k", s))}
			out[k.String()] = slices.Clone(tr.Lookup(enc(k)))
		}
	}
	return out
}
