package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"dkbms/internal/rel"
)

// TestKeyTableMatchesMap: entry numbers are dense in insertion order and
// find/add agree with a map[string]int over random keys, across growth.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var kt keyTable
	if kt.find([]byte("x")) != -1 {
		t.Fatal("find on the zero table")
	}
	model := map[string]int{}
	for i := 0; i < 20000; i++ {
		key := make([]byte, rng.Intn(12)) // short keys collide often; the empty key is one
		for j := range key {
			key[j] = byte(rng.Intn(4))
		}
		want, seen := model[string(key)]
		if got := kt.find(key); seen && got != want || !seen && got != -1 {
			t.Fatalf("find(%x) = %d, model %d (seen %v)", key, got, want, seen)
		}
		got, added := kt.add(key)
		if !seen {
			want = len(model)
			model[string(key)] = want
		}
		if got != want || added == seen {
			t.Fatalf("add(%x) = %d, %v; model %d, seen %v", key, got, added, want, seen)
		}
	}
	if kt.len() != len(model) {
		t.Fatalf("len = %d, model %d", kt.len(), len(model))
	}
}

// TestSlabTuples: tuples from a slab never share memory, their capacity
// is their length, a peeked tuple that is not taken is handed out again,
// and the slab allocates at most a quarter more than it hands out (plus
// the one-row chunks it starts with).
func TestSlabTuples(t *testing.T) {
	const width, n = 3, 5000
	var s slab
	var out []rel.Tuple
	for i := 0; i < n; i++ {
		cand := s.concat(rel.Tuple{rel.NewInt(-1)}, rel.Tuple{rel.NewInt(-1), rel.NewInt(-1)})
		if i%3 == 0 {
			continue // a candidate that failed its residual
		}
		tu := s.take(width)
		if &tu[0] != &cand[0] || cap(tu) != width {
			t.Fatalf("take returned another tuple than peek, or cap %d", cap(tu))
		}
		for c := range tu {
			tu[c] = rel.NewInt(int64(i))
		}
		out = append(out, tu)
	}
	for _, tu := range out {
		if tu[0] != tu[width-1] || tu[0].Int%3 == 0 {
			t.Fatalf("tuple overwritten: %v", tu)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		var s slab
		for i := 0; i < n; i++ {
			s.take(width)
		}
	})
	if allocs > 50 {
		t.Errorf("%d tuples took %.0f allocations", n, allocs)
	}
}

func BenchmarkKeyTableAdd(b *testing.B) {
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("\x04n%03d\x04n%03d", i%512, i/8))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var kt keyTable
		for _, k := range keys {
			kt.add(k)
		}
	}
}
