package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dkbms/internal/rel"
	"dkbms/internal/storage"
)

// TestQuickInsertedKeysRetrievable: any batch of distinct (key, rid)
// pairs inserted into a fresh tree is fully retrievable, the tree
// validates, and iteration yields keys in sorted order.
func TestQuickInsertedKeysRetrievable(t *testing.T) {
	f := func(keys []int64, seed int64) bool {
		tr := New(ints(1))
		r := rand.New(rand.NewSource(seed))
		inserted := make(map[int64][]storage.RID)
		for i, k := range keys {
			rid := storage.RID{Page: uint32(r.Intn(100)), Slot: uint16(i)}
			dup := false
			for _, have := range inserted[k] {
				if have == rid {
					dup = true
				}
			}
			if dup {
				continue
			}
			if err := tr.Insert(enc(intKey(k)), rid); err != nil {
				return false
			}
			inserted[k] = append(inserted[k], rid)
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		for k, rids := range inserted {
			got := tr.Lookup(intKey(k))
			if len(got) != len(rids) {
				return false
			}
		}
		// Sorted iteration.
		prev := int64(0)
		first := true
		ok := true
		tr.AscendRange(nil, nil, func(key rel.Tuple, _ []storage.RID) bool {
			if !first && key[0].Int <= prev {
				ok = false
				return false
			}
			prev = key[0].Int
			first = false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteRestoresAbsence: inserting then deleting a batch
// leaves an empty, valid tree.
func TestQuickDeleteRestoresAbsence(t *testing.T) {
	f := func(keys []int16) bool {
		tr := New(ints(1))
		seen := map[int16]bool{}
		var distinct []int16
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				distinct = append(distinct, k)
			}
		}
		for i, k := range distinct {
			if err := tr.Insert(enc(intKey(int64(k))), ridFor(i)); err != nil {
				return false
			}
		}
		for i, k := range distinct {
			if err := tr.Delete(enc(intKey(int64(k))), ridFor(i)); err != nil {
				return false
			}
		}
		return tr.Len() == 0 && tr.DistinctKeys() == 0 && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeMatchesFilter: AscendRange(lo, hi) returns exactly the
// inserted keys within [lo, hi).
func TestQuickRangeMatchesFilter(t *testing.T) {
	f := func(keys []int16, lo, hi int16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New(ints(1))
		seen := map[int16]bool{}
		for i, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tr.Insert(enc(intKey(int64(k))), ridFor(i)); err != nil {
				return false
			}
		}
		want := 0
		for k := range seen {
			if k >= lo && k < hi {
				want++
			}
		}
		got := 0
		tr.AscendRange(intKey(int64(lo)), intKey(int64(hi)), func(rel.Tuple, []storage.RID) bool {
			got++
			return true
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
