package dkbms

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// familyStmt prepares ?- ancestor(john, W). over the family D/KB on a
// ConcurrentTestbed.
func familyStmt(t *testing.T) (*ConcurrentTestbed, *ConcurrentPrepared) {
	t.Helper()
	c := NewConcurrent(NewMemory())
	t.Cleanup(func() { c.Close() })
	if err := c.Load(familyKB); err != nil {
		t.Fatal(err)
	}
	stmt, err := c.Prepare("?- ancestor(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, stmt
}

const familyAnswer = "ann;bob;lea;mary;tom"

func TestPreparedQueryReuse(t *testing.T) {
	c, stmt := familyStmt(t)
	runPrepared(t, stmt, "plan", familyAnswer)
	for i := 0; i < 2; i++ {
		runPrepared(t, stmt, "result", familyAnswer)
	}
	if st := c.PlanStats(); st.Misses != 1 {
		t.Fatalf("compilations = %d after repeated runs, want 1", st.Misses)
	}
}

func TestPreparedSeesNewFacts(t *testing.T) {
	// Appending facts to an existing relation must NOT recompile the
	// program but MUST be visible to the next Run.
	c, stmt := familyStmt(t)
	runPrepared(t, stmt, "plan", familyAnswer)
	if err := c.Load("parent(lea, zoe)."); err != nil {
		t.Fatal(err)
	}
	runPrepared(t, stmt, "maintained", familyAnswer+";zoe")
	if st := c.PlanStats(); st.Misses != 1 {
		t.Fatalf("compilations = %d after a fact append, want 1", st.Misses)
	}
}

func TestPreparedInvalidatedByRuleChange(t *testing.T) {
	c, stmt := familyStmt(t)
	runPrepared(t, stmt, "plan", familyAnswer)
	// A new rule extends ancestor through marriage.
	if err := c.Load(`
married(john, jane).
married(jane, john).
ancestor(X, Y) :- married(X, Z), parent(Z, Y).
`); err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// john's descendants unchanged (jane has no separate children) but
	// the program recompiled against 3 rules.
	if res.Cache != "miss" || rowsKey(res) != familyAnswer || res.Compile.RelevantRules != 3 {
		t.Fatalf("after the rule load: cache %q, rows %s, R_r = %d", res.Cache, rowsKey(res), res.Compile.RelevantRules)
	}
}

func TestPreparedInvalidatedByUpdate(t *testing.T) {
	c, stmt := familyStmt(t)
	runPrepared(t, stmt, "plan", familyAnswer)
	if _, err := c.Update(); err != nil {
		t.Fatal(err)
	}
	runPrepared(t, stmt, "miss", familyAnswer)
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
	stmt, err := c.Prepare("?- knows(ann, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	runPrepared(t, stmt, "plan", "carl")
	if err := c.Load("knows(ann, bob)."); err != nil { // first fact for knows: new relation
		t.Fatal(err)
	}
	runPrepared(t, stmt, "miss", "bob;carl")
}

func TestPreparedParseError(t *testing.T) {
	c, _ := familyStmt(t)
	if _, err := c.Prepare("?- nonsense(", nil); !errors.Is(err, ErrParse) {
		t.Fatalf("bad query: err = %v, want ErrParse", err)
	}
}

// runPrepared runs a ConcurrentPrepared and checks how the plan cache
// served it and what it answered.
func runPrepared(t *testing.T, stmt *ConcurrentPrepared, wantCache, wantRows string) {
	t.Helper()
	res, err := stmt.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != wantCache {
		t.Fatalf("cache = %q, want %q", res.Cache, wantCache)
	}
	if got := rowsKey(res); got != wantRows {
		t.Fatalf("rows = %s, want %s", got, wantRows)
	}
}

// TestConcurrentPreparedCache: a prepared statement holds no program of
// its own — its runs are memoized, invalidated and recompiled by the
// shared plan cache exactly as the same text queried directly.
func TestConcurrentPreparedCache(t *testing.T) {
	c := newCachedTestbed(t)
	stmt, err := c.Prepare("?- ancestor(a, X).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.PlanStats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after Prepare: %+v, want the one compilation cached", st)
	}
	// Unchanged D/KB: Prepare's program, then the first run's answer.
	runPrepared(t, stmt, "plan", "b;c")
	runPrepared(t, stmt, "result", "b;c")
	if res, err := c.Query("?- ancestor(a, X).", nil); err != nil || res.Cache != "result" {
		t.Fatalf("the statement's text queried directly: cache %q, %v", res.Cache, err)
	}
	// A rule change outdates the program: one recompile, then memoized.
	if err := c.Load("ancestor(X, Y) :- parent(Y, X)."); err != nil {
		t.Fatal(err)
	}
	runPrepared(t, stmt, "miss", "a;b;c")
	runPrepared(t, stmt, "result", "a;b;c")
	if st := c.PlanStats(); st.Misses != 2 {
		t.Fatalf("after the rule load: %+v, want 2 misses", st)
	}
}

// TestConcurrentPreparedEvicted: when the LRU evicts a statement's
// entry, its next run recompiles and still answers correctly.
func TestConcurrentPreparedEvicted(t *testing.T) {
	c := newCachedTestbedWith(t, ConcurrentOptions{PlanCacheEntries: 2})
	stmt, err := c.Prepare("?- ancestor(a, X).", nil)
	if err != nil {
		t.Fatal(err)
	}
	queryRows(t, c, "?- ancestor(b, X).")
	queryRows(t, c, "?- parent(a, X).")
	misses := c.PlanStats().Misses
	runPrepared(t, stmt, "miss", "b;c")
	runPrepared(t, stmt, "result", "b;c")
	if got := c.PlanStats().Misses; got != misses+1 {
		t.Fatalf("evicted statement: misses %d -> %d, want one recompile", misses, got)
	}
}

// TestConcurrentPreparedStorm shares one statement among 8 goroutines
// while a writer loads and retracts edges of the relation it reads.
// Every answer — memoized, maintained or evaluated — must be the closure
// at the snapshot it reports; the single writer records that closure
// commit by commit. Run with -race.
func TestConcurrentPreparedStorm(t *testing.T) {
	const readers, rounds = 8, 40
	c := newCachedTestbedWith(t, ConcurrentOptions{MaintenancePolicy: MaintIncremental})
	stmt, err := c.Prepare("?- ancestor(a, X).", nil)
	if err != nil {
		t.Fatal(err)
	}
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
					stop = true // one last run, against the final state
				default:
				}
				res, err := stmt.Run(context.Background(), 0)
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
