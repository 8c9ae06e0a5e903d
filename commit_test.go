package dkbms

import (
	"errors"
	"testing"
)

// TestCommitFootprintPinned pins what each ConcurrentTestbed write does
// to the snapshot store and the plan cache: how many commits it
// publishes, how many table versions it copies (the ones it writes),
// how a memoized query on the relation it writes is served next, and
// that a snapshot pinned before it still reads every table at its
// pre-write row count. A case's setup runs before the memo is read.
func TestCommitFootprintPinned(t *testing.T) {
	const memo = "?- ancestor(a, X)."
	load := func(src string) func(c *ConcurrentTestbed) error {
		return func(c *ConcurrentTestbed) error { return c.Load(src) }
	}
	retract := func(src string, want int) func(c *ConcurrentTestbed) error {
		return func(c *ConcurrentTestbed) error {
			n, err := c.RetractSrc(src)
			if err == nil && n != want {
				t.Errorf("retract %s removed %d, want %d", src, n, want)
			}
			return err
		}
	}
	update := func(c *ConcurrentTestbed) error { _, err := c.Update(); return err }
	for _, tc := range []struct {
		name            string
		write           func(c *ConcurrentTestbed) error
		commits, copied int64
		cache           string
		wantErr         func(err error) bool
		setup           []func(c *ConcurrentTestbed) error
	}{
		{"append to an existing relation", load("parent(c, d)."), 1, 1, "plan", nil, nil},
		{"fact creating a relation", load("knows(a, b)."), 1, 2, "miss", nil, nil},
		{"rules only", load("sib(X, Y) :- parent(Z, X), parent(Z, Y)."), 1, 0, "miss", nil, nil},
		{"mixed program", load("parent(c, d). knows(a, b). kid(X) :- parent(Y, X)."), 1, 3, "miss", nil, nil},
		{"empty program", load(""), 0, 0, "result", nil, nil},
		{"retract matching", retract("parent(b, c)", 1), 1, 1, "plan", nil, nil},
		{"retract matching nothing", retract("parent(z, X)", 0), 0, 0, "result", nil, nil},
		{"retract unknown predicate", retract("nosuch(a)", 0), 0, 0, "result", nil, nil},
		{"retract arity error", retract("parent(a)", 0), 0, 0, "result",
			func(err error) bool { return errors.Is(err, ErrSemantic) }, nil},
		{"update", update, 1, 4, "miss", nil, nil},
		// ancestor is in idbrels already: only rulesource and
		// reachablepreds are written.
		{"update adding rules to a predicate already stored", update, 1, 2, "miss", nil,
			[]func(c *ConcurrentTestbed) error{update, load("ancestor(X, Y) :- parent(Y, X).")}},
		{"facts disagreeing in type", load("parent(c, d). parent(1, 2)."), 1, 1, "plan",
			func(err error) bool {
				return err != nil && err.Error() == "stored: predicate parent column 1 is CHAR, got INTEGER"
			}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCachedTestbed(t)
			for _, setup := range tc.setup {
				if err := setup(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				queryRows(t, c, memo)
			}
			s, err := c.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			rows := make(map[string]int)
			for name, v := range s.Tables() {
				rows[name] = v.Rows()
			}
			before := c.SnapshotStats()

			err = tc.write(c)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("write: %v", err)
			case tc.wantErr != nil && !tc.wantErr(err):
				t.Fatalf("write: err = %v", err)
			}
			after := c.SnapshotStats()
			if d := after.Commits - before.Commits; d != tc.commits {
				t.Errorf("commits +%d, want +%d", d, tc.commits)
			}
			if d := after.CopiedTables - before.CopiedTables; d != tc.copied {
				t.Errorf("copied tables +%d, want +%d", d, tc.copied)
			}
			for name, v := range s.Tables() {
				if got := v.Rows(); got != rows[name] {
					t.Errorf("pinned snapshot: %s has %d rows, had %d", name, got, rows[name])
				}
			}
			res, err := c.Query(memo, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != tc.cache {
				t.Errorf("next memoized query: cache %q, want %q", res.Cache, tc.cache)
			}
			if n := c.tb.Stored().FactCount("parent"); n > rows[BaseTableName("parent")]+1 {
				t.Errorf("parent has %d facts after the write, had %d", n, rows[BaseTableName("parent")])
			}
		})
	}
}

// TestEngineCountersNeverDecrease: a commit replaces the relation it
// writes by a copy with a fresh heap and fresh index trees, and an
// unqualified DELETE truncates them; neither may send a counter of
// EngineMetrics backwards, since a registry counter is a running total.
// Every index also reports the bytes it holds.
func TestEngineCountersNeverDecrease(t *testing.T) {
	tb := NewMemory()
	tb.MustLoad("p(a, b). p(b, c).")
	if err := tb.CreateFactIndex("p", 0); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tb)
	defer c.Close()
	const ix = "index.edb_p_ix_c0."
	read := func() (counters map[string]int64, bytes int64) {
		counters = map[string]int64{}
		for _, m := range c.EngineMetrics() {
			switch {
			case m.Kind == "counter":
				counters[m.Name] = m.Value
			case m.Name == ix+"bytes":
				bytes = m.Value
			}
		}
		return counters, bytes
	}
	query := func() {
		t.Helper()
		if _, err := c.Query("?- p(a, X).", nil); err != nil {
			t.Fatal(err)
		}
	}
	query()
	before, bytes := read()
	if before[ix+"searches"] == 0 || bytes == 0 {
		t.Fatalf("the query did not probe the index, or it holds no bytes: searches %d, bytes %d", before[ix+"searches"], bytes)
	}
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"commit of p(c, d)", func() error { return c.Load("p(c, d).") }},
		{"DELETE FROM edb_p", func() error { _, err := c.RetractSrc("p(X, Y)."); return err }},
		{"commit after the DELETE", func() error { return c.Load("p(a, e).") }},
	} {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		after, _ := read()
		for name, v := range before {
			if after[name] < v {
				t.Errorf("%s: %s went from %d to %d", w.name, name, v, after[name])
			}
		}
		query()
		before, _ = read()
	}
}
