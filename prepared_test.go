package dkbms

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The tests here follow a query text the shared plan cache prepares once
// (the paper's precompiled query): compiled on its first run, served from
// the memo while facts stand still, re-evaluated when they move,
// recompiled only when the rules change.

// familyTestbed is a ConcurrentTestbed over the family D/KB.
func familyTestbed(t *testing.T) *ConcurrentTestbed {
	t.Helper()
	c := NewConcurrent(NewMemory())
	t.Cleanup(func() { c.Close() })
	if err := c.Load(familyKB); err != nil {
		t.Fatal(err)
	}
	return c
}

const (
	familyQuery  = "?- ancestor(john, W)."
	familyAnswer = "ann;bob;lea;mary;tom"
)

func TestPreparedQueryReuse(t *testing.T) {
	c := familyTestbed(t)
	queryCache(t, c, familyQuery, "miss", familyAnswer)
	for i := 0; i < 2; i++ {
		queryCache(t, c, familyQuery, "result", familyAnswer)
	}
	if st := c.PlanStats(); st.Misses != 1 {
		t.Fatalf("compilations = %d after repeated queries, want 1", st.Misses)
	}
}

func TestPreparedSeesNewFacts(t *testing.T) {
	// Appending facts to an existing relation must NOT recompile the
	// program but MUST be visible to the next query.
	c := familyTestbed(t)
	queryCache(t, c, familyQuery, "miss", familyAnswer)
	if err := c.Load("parent(lea, zoe)."); err != nil {
		t.Fatal(err)
	}
	queryCache(t, c, familyQuery, "plan", familyAnswer+";zoe")
	if st := c.PlanStats(); st.Misses != 1 {
		t.Fatalf("compilations = %d after a fact append, want 1", st.Misses)
	}
}

func TestPreparedInvalidatedByRuleChange(t *testing.T) {
	c := familyTestbed(t)
	queryCache(t, c, familyQuery, "miss", familyAnswer)
	// A new rule extends ancestor through marriage.
	if err := c.Load(`
married(john, jane).
married(jane, john).
ancestor(X, Y) :- married(X, Z), parent(Z, Y).
`); err != nil {
		t.Fatal(err)
	}
	res := queryCache(t, c, familyQuery, "miss", familyAnswer)
	// john's descendants unchanged (jane has no separate children) but
	// the program recompiled against 3 rules.
	if res.Compile.RelevantRules != 3 {
		t.Fatalf("after the rule load: R_r = %d, want 3", res.Compile.RelevantRules)
	}
}

func TestPreparedInvalidatedByUpdate(t *testing.T) {
	c := familyTestbed(t)
	queryCache(t, c, familyQuery, "miss", familyAnswer)
	if _, err := c.Update(); err != nil {
		t.Fatal(err)
	}
	queryCache(t, c, familyQuery, "miss", familyAnswer)
}

func TestPreparedInvalidatedByNewFactRelation(t *testing.T) {
	// Creating a fact relation for a predicate that also has rules
	// changes the compiled program (mixed normalization) — must
	// recompile.
	c := NewConcurrent(NewMemory())
	defer c.Close()
	if err := c.Load(`
friend(ann, carl).
knows(X, Y) :- friend(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	const q = "?- knows(ann, W)."
	queryCache(t, c, q, "miss", "carl")
	if err := c.Load("knows(ann, bob)."); err != nil { // first fact for knows: new relation
		t.Fatal(err)
	}
	queryCache(t, c, q, "miss", "bob;carl")
}

func TestPreparedParseError(t *testing.T) {
	c := familyTestbed(t)
	if _, err := c.Query("?- nonsense(", nil); !errors.Is(err, ErrParse) {
		t.Fatalf("bad query: err = %v, want ErrParse", err)
	}
	if st := c.PlanStats(); st.Entries != 0 {
		t.Fatalf("a text that does not parse was cached: %+v", st)
	}
}

// queryCache queries src and checks how the plan cache served it and
// what it answered.
func queryCache(t *testing.T, c *ConcurrentTestbed, src, wantCache, wantRows string) *QueryResult {
	t.Helper()
	res, err := c.Query(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != wantCache {
		t.Fatalf("%s: cache = %q, want %q", src, res.Cache, wantCache)
	}
	if got := rowsKey(res); got != wantRows {
		t.Fatalf("%s: rows = %s, want %s", src, got, wantRows)
	}
	return res
}

// TestConcurrentQueryCache: a query text is compiled once, its answer
// memoized, and a rule change costs one recompile before the answer is
// memoized again.
func TestConcurrentQueryCache(t *testing.T) {
	c := newCachedTestbed(t)
	const q = "?- ancestor(a, X)."
	queryCache(t, c, q, "miss", "b;c")
	if st := c.PlanStats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after the first query: %+v, want the one compilation cached", st)
	}
	queryCache(t, c, q, "result", "b;c")
	// A rule change outdates the program: one recompile, then memoized.
	if err := c.Load("ancestor(X, Y) :- parent(Y, X)."); err != nil {
		t.Fatal(err)
	}
	queryCache(t, c, q, "miss", "a;b;c")
	queryCache(t, c, q, "result", "a;b;c")
	if st := c.PlanStats(); st.Misses != 2 {
		t.Fatalf("after the rule load: %+v, want 2 misses", st)
	}
}

// TestConcurrentQueryEvicted: when the LRU evicts a text's entry, its
// next query recompiles and still answers correctly.
func TestConcurrentQueryEvicted(t *testing.T) {
	c := newCachedTestbed(t)
	c.plans.capacity = 2
	const q = "?- ancestor(a, X)."
	queryCache(t, c, q, "miss", "b;c")
	queryRows(t, c, "?- ancestor(b, X).")
	queryRows(t, c, "?- parent(a, X).")
	misses := c.PlanStats().Misses
	queryCache(t, c, q, "miss", "b;c")
	queryCache(t, c, q, "result", "b;c")
	if got := c.PlanStats().Misses; got != misses+1 {
		t.Fatalf("evicted text: misses %d -> %d, want one recompile", misses, got)
	}
}

// TestConcurrentQueryStorm has 8 goroutines query one text while a
// writer loads and retracts edges of the relation it reads. Every
// answer — memoized or evaluated — must be the closure at
// the snapshot it reports; the single writer records that closure
// commit by commit. Run with -race.
func TestConcurrentQueryStorm(t *testing.T) {
	const readers, rounds = 8, 40
	const q = "?- ancestor(a, X)."
	c := newCachedTestbed(t)
	// Written by the writer goroutine only, read after it has stopped.
	wantAt := map[uint64]string{c.SnapshotStats().Gen: "b;c"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			if err := c.Load(fmt.Sprintf("parent(c, d%d).", i)); err != nil {
				t.Error(err)
				return
			}
			wantAt[c.SnapshotStats().Gen] = fmt.Sprintf("b;c;d%d", i)
			if _, err := c.RetractSrc(fmt.Sprintf("parent(c, d%d)", i)); err != nil {
				t.Error(err)
				return
			}
			wantAt[c.SnapshotStats().Gen] = "b;c"
		}
	}()
	type answer struct {
		gen         uint64
		cache, rows string
	}
	seen := make([][]answer, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last query, against the final state
				default:
				}
				res, err := c.Query(q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				seen[r] = append(seen[r], answer{res.Snapshot, res.Cache, rowsKey(res)})
			}
		}()
	}
	wg.Wait()
	for r, answers := range seen {
		for _, a := range answers {
			if want, ok := wantAt[a.gen]; !ok || a.rows != want {
				t.Fatalf("reader %d at snapshot %d (cache %q): rows %s, want %s", r, a.gen, a.cache, a.rows, want)
			}
		}
	}
}
