package exec

import (
	"slices"
	"testing"

	"dkbms/internal/catalog"
	"dkbms/internal/rel"
)

// TestReadsRecordProbes: an index join records the key of every probe
// it makes, on the index it probed — a probe that finds nothing too —
// and an index scan of a full key its key; a scan of the table, or a
// probe of a key prefix, marks the table read whole; Reset empties the
// recorder.
func TestReadsRecordProbes(t *testing.T) {
	c := cat(t)
	l := newTable(t, c, "l", [][2]int64{{1, 0}, {99, 0}, {2, 0}})
	r := newTable(t, c, "r", [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	idx, err := c.CreateIndex("r_a", "r", []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	both, err := c.CreateIndex("r_ab", "r", []string{"a", "b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	key := func(ix *catalog.Index, vals ...int64) uint64 {
		tu := make(rel.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = rel.NewInt(v)
		}
		return catalog.KeyHash(tu.AppendKey(nil, nil)) ^ KeySalt(ix.Name)
	}
	var reads Reads
	collect(t, &IndexNLJoin{Left: &SeqScan{Table: l}, Right: r, Index: idx, LeftOrds: []int{0}, Reads: &reads})
	collect(t, &IndexScan{Table: r, Index: both, Key: rel.Tuple{rel.NewInt(3), rel.NewInt(30)}.Encode(nil), Cols: 2, Reads: &reads})
	tables := reads.Tables()
	if len(tables) != 1 || tables[0].Table != r || tables[0].Whole {
		t.Fatalf("recorded %+v, want r read through probes alone", tables)
	}
	if want := []*catalog.Index{idx, both}; !slices.Equal(tables[0].Indexes, want) {
		t.Errorf("probed indexes %v, want r_a and r_ab", tables[0].Indexes)
	}
	if want := []uint64{key(idx, 1), key(idx, 99), key(idx, 2), key(both, 3, 30)}; !slices.Equal(tables[0].Keys, want) {
		t.Errorf("keys %x, want %x", tables[0].Keys, want)
	}

	collect(t, &IndexScan{Table: r, Index: both, Key: rel.Tuple{rel.NewInt(3)}.Encode(nil), Cols: 1, Reads: &reads})
	if tables := reads.Tables(); !tables[0].Whole || len(tables[0].Keys) != 0 || len(tables[0].Indexes) != 0 {
		t.Errorf("a prefix probe left %+v, want r read whole", tables[0])
	}
	reads.Reset()
	collect(t, &SeqScan{Table: r, Reads: &reads})
	if tables := reads.Tables(); len(tables) != 1 || !tables[0].Whole {
		t.Errorf("a scan recorded %+v, want r read whole", tables)
	}
	reads.Reset()
	if len(reads.Tables()) != 0 {
		t.Errorf("Reset left %+v", reads.Tables())
	}
}
