package dkbms

import (
	"errors"
	"testing"
)

// TestCommitFootprintPinned pins what each ConcurrentTestbed write does
// to the snapshot store and the plan cache: how many commits it
// publishes, how many table versions it copies, how a memoized query on
// the relation it writes is served next, and that a snapshot pinned
// before it still reads every table at its pre-write row count.
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
	for _, tc := range []struct {
		name            string
		write           func(c *ConcurrentTestbed) error
		commits, copied int64
		cache           string
		wantErr         func(err error) bool
	}{
		{"append to an existing relation", load("parent(c, d)."), 1, 1, "maintained", nil},
		{"fact creating a relation", load("knows(a, b)."), 1, 2, "miss", nil},
		{"rules only", load("sib(X, Y) :- parent(Z, X), parent(Z, Y)."), 1, 0, "miss", nil},
		{"mixed program", load("parent(c, d). knows(a, b). kid(X) :- parent(Y, X)."), 1, 3, "miss", nil},
		{"empty program", load(""), 0, 0, "result", nil},
		{"retract matching", retract("parent(b, c)", 1), 1, 1, "maintained", nil},
		{"retract matching nothing", retract("parent(z, X)", 0), 0, 0, "result", nil},
		{"retract unknown predicate", retract("nosuch(a)", 0), 0, 0, "result", nil},
		{"retract arity error", retract("parent(a)", 0), 0, 0, "result",
			func(err error) bool { return errors.Is(err, ErrSemantic) }},
		{"update", func(c *ConcurrentTestbed) error { _, err := c.Update(); return err }, 1, 4, "miss", nil},
		{"facts disagreeing in type", load("parent(c, d). parent(1, 2)."), 1, 1, "plan",
			func(err error) bool {
				return err != nil && err.Error() == "stored: predicate parent column 1 is CHAR, got INTEGER"
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCachedTestbed(t)
			for i := 0; i < 2; i++ {
				queryRows(t, c, memo)
			}
			s, err := c.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Release()
			rows := make(map[string]int)
			for _, name := range s.Tables() {
				rows[name] = s.Version(name).Table.Rows()
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
			for _, name := range s.Tables() {
				if got := s.Version(name).Table.Rows(); got != rows[name] {
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
			if n := c.Testbed().Stored().FactCount("parent"); n > rows[BaseTableName("parent")]+1 {
				t.Errorf("parent has %d facts after the write, had %d", n, rows[BaseTableName("parent")])
			}
		})
	}
}
