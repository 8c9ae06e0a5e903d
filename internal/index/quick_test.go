package index

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dkbms/internal/storage"
)

// TestQuickInsertedKeysRetrievable: any batch of distinct (key, rid)
// pairs inserted into a fresh tree is fully retrievable, the tree
// validates, and a whole walk yields keys in sorted order.
func TestQuickInsertedKeysRetrievable(t *testing.T) {
	f := func(keys []int64, seed int64) bool {
		tr := New(ints(1))
		r := rand.New(rand.NewSource(seed))
		inserted := make(map[int64][]storage.RID)
		keyOf := make(map[storage.RID]int64)
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
			keyOf[rid] = k
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		for k, rids := range inserted {
			got := tr.Lookup(enc(intKey(k)))
			if len(got) != len(rids) {
				return false
			}
		}
		// Sorted iteration: each key's postings, keys ascending.
		n, prev := 0, int64(0)
		ok := tr.Postings(nil, func(rids []storage.RID) error {
			k := keyOf[rids[0]]
			for _, rid := range rids {
				if keyOf[rid] != k {
					return errors.New("postings of two keys under one")
				}
			}
			if n > 0 && k <= prev {
				return errors.New("keys out of order")
			}
			prev, n = k, n+1
			return nil
		}) == nil
		return ok && n == len(inserted)
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

// TestQuickPrefixMatchesFilter: on two-column keys, Postings and
// CountPrefix of a one-column prefix find exactly the inserted keys
// with that first column.
func TestQuickPrefixMatchesFilter(t *testing.T) {
	f := func(keys []int16, p int16) bool {
		p %= 8
		tr := New(ints(2))
		seen := map[int16]bool{}
		want := 0
		for i, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tr.Insert(enc(intKey(int64(k%8), int64(k))), ridFor(i)); err != nil {
				return false
			}
			if k%8 == p {
				want++
			}
		}
		prefix := enc(intKey(int64(p)))
		return len(postings(tr, prefix)) == want && tr.CountPrefix(prefix) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
