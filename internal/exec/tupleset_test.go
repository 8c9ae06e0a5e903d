package exec

import (
	"slices"
	"strings"
	"testing"

	"dkbms/internal/rel"
)

// FuzzTupleSet runs a byte string as a sequence of (operation, argument)
// pairs against a tupleSet and a reference — a map keyed by
// rel.Tuple.AppendKey over a slice in insertion order. The operations
// are add, remove (find, then remove what it found), find, and a read
// of the whole set. Both hold (INT, STRING) tuples: the argument picks
// a small int and a string — empty, short, or of 128 bytes and more,
// whose length takes two bytes to encode — so sequences revisit tuples.
// After every operation the set finds what the reference holds, and a
// read returns, in insertion order, exactly the surviving tuples from
// live() and their keys from records(). Then the reuse pass: the same
// set is trimmed and reset, as a kept operator tree's next execution
// does, and replays a second sequence — the program's second half
// first — against a fresh reference.
func FuzzTupleSet(f *testing.F) {
	schema := rel.MustSchema(
		rel.Column{Name: "n", Type: rel.TypeInt},
		rel.Column{Name: "s", Type: rel.TypeString},
	)
	f.Add([]byte{0, 0, 0, 9, 0, 0x1a, 3, 0, 1, 9, 3, 0, 0, 9, 3, 0})
	type entry struct {
		key  string
		tu   rel.Tuple
		live bool
	}
	replay := func(t *testing.T, set *tupleSet, prog []byte) {
		var ref []entry
		at := map[string]int{}
		for i := 0; i+1 < len(prog) && i < 2000; i += 2 {
			op, arg := prog[i], prog[i+1]
			var str string
			letter := string(rune('a' + op>>2%3))
			switch arg >> 3 % 4 {
			case 1:
				str = letter
			case 2:
				str = strings.Repeat(letter, 5)
			case 3:
				str = strings.Repeat(letter, 128+int(arg>>5))
			}
			tu := rel.Tuple{rel.NewInt(int64(arg%8) - 3), rel.NewString(str)}
			key := string(tu.AppendKey(nil, nil))
			want := -1
			if j, ok := at[key]; ok && ref[j].live {
				want = j
			}
			switch op % 4 {
			case 0:
				if err := set.add(tu); err != nil {
					t.Fatal(err)
				}
				if j, ok := at[key]; ok {
					ref[j].live = true
				} else {
					at[key] = len(ref)
					ref = append(ref, entry{key, tu, true})
				}
			case 1, 2:
				got := set.find([]byte(key))
				if got != want {
					t.Fatalf("op %d: find %v = %d, want %d", i/2, tu, got, want)
				}
				if op%4 == 1 && got >= 0 {
					set.remove(got)
					ref[got].live = false
				}
			case 3:
				var wantRows []rel.Tuple
				var wantRecs []string
				for _, e := range ref {
					if e.live {
						wantRows = append(wantRows, e.tu)
						wantRecs = append(wantRecs, e.key)
					}
				}
				if set.n != len(wantRows) {
					t.Fatalf("op %d: set holds %d tuples, want %d", i/2, set.n, len(wantRows))
				}
				rows, err := set.live()
				if err != nil {
					t.Fatalf("op %d: live: %v", i/2, err)
				}
				if len(rows) != len(wantRows) {
					t.Fatalf("op %d: live returned %d tuples, want %d", i/2, len(rows), len(wantRows))
				}
				for j := range rows {
					if rel.CompareTuples(rows[j], wantRows[j]) != 0 {
						t.Fatalf("op %d: live()[%d] = %v, want %v", i/2, j, rows[j], wantRows[j])
					}
				}
				var recs []string
				if err := set.records(func(rec []byte) error { recs = append(recs, string(rec)); return nil }); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(recs, wantRecs) {
					t.Fatalf("op %d: records %q, want %q", i/2, recs, wantRecs)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		set := &tupleSet{schema: schema}
		replay(t, set, prog)
		set.trim()
		set.reset(schema)
		half := len(prog) / 4 * 2
		replay(t, set, append(slices.Clone(prog[half:]), prog[:half]...))
	})
}
