package exec

import (
	"fmt"
	"math/rand"
	"testing"
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
