package server_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/rel"
	"dkbms/internal/server"
	"dkbms/internal/wire"
)

// rowsProgram has answers of every shape the RESULT frame carries: int
// and string columns, the empty string, a string long enough for a
// two-byte length, one and two columns, and no rows. The engine admits
// no zero-column answer (a fully ground query is a semantic error), so
// zero-width rows are covered by the wire package's tests alone.
var rowsProgram = `
num(1, "a"). num(2, ""). num(3, "` + strings.Repeat("long ", 40) + `"). num(-5, "b c").
num(1099511627776, "big").
pair(1, 2). pair(2, 3). pair(3, 4).
reach(X, Y) :- pair(X, Y).
reach(X, Y) :- pair(X, Z), reach(Z, Y).
`

var rowsQueries = []string{
	"?- num(X, S).",
	`?- num(X, "a").`,
	"?- num(3, S).",
	"?- num(7, S).",
	"?- reach(X, Y).",
	"?- reach(1, Y).",
}

// sortedRows returns the rows in rel.CompareTuples order, which orders
// by type before value, so equal sorted rows are equal in type too.
func sortedRows(rows []rel.Tuple) []rel.Tuple {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, rel.CompareTuples)
	return rows
}

func sameRows(a, b []rel.Tuple) bool {
	return slices.EqualFunc(sortedRows(a), sortedRows(b), func(x, y rel.Tuple) bool { return rel.CompareTuples(x, y) == 0 })
}

// TestRemoteRowsMatchLocal is the over-the-wire differential: for every
// query, a local ConcurrentTestbed's rows equal the rows a client decodes
// from QUERY under two option sets, each both cold and as a memo hit.
func TestRemoteRowsMatchLocal(t *testing.T) {
	ref := dkbms.NewConcurrent(dkbms.NewMemory())
	defer ref.Close()
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	for _, b := range []*dkbms.ConcurrentTestbed{ref, tb} {
		if err := b.Load(rowsProgram); err != nil {
			t.Fatal(err)
		}
	}
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, q := range rowsQueries {
		want, err := ref.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The NoOptimize QUERYs are a second key, cold the first time.
		calls := []struct {
			name string
			opts wire.QueryOpts
		}{
			{"QUERY cold", wire.QueryOpts{}},
			{"QUERY hit", wire.QueryOpts{}},
			{"NoOptimize QUERY cold", wire.QueryOpts{NoOptimize: true}},
			{"NoOptimize QUERY hit", wire.QueryOpts{NoOptimize: true}},
		}
		for _, call := range calls {
			got, err := c.Query(q, call.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", call.name, q, err)
			}
			if !sameRows(got.Rows, want.Rows) || !slices.Equal(got.Vars, want.Vars) {
				t.Fatalf("%s %s: remote %v %v, local %v %v", call.name, q, got.Vars, got.Rows, want.Vars, want.Rows)
			}
		}
	}
	if got, want := stats(t, c)["plan.result_hits"], int64(2*len(rowsQueries)); got < want {
		t.Fatalf("%d memo hits, want at least %d", got, want)
	}
}

// TestResultRowsOutliveNextCall keeps one call's result across a second
// call with a different answer on the same Client: the client reads the
// second reply into the buffer the first was read into, and the first
// result's rows must not change.
func TestResultRowsOutliveNextCall(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(rowsProgram); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first, err := c.Query("?- num(X, S).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(first.Rows)
	second, err := c.Query("?- reach(X, Y).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(first.Rows, second.Rows) {
		t.Fatal("the two queries have the same answer")
	}
	if after := fmt.Sprint(first.Rows); after != before {
		t.Fatalf("the first result's rows changed under the second call:\nbefore %s\nafter  %s", before, after)
	}
}

// TestSharedClient runs two goroutines on one Client, each repeating a
// query with its own answer: exchanges serialize on the client and each
// caller decodes its own reply (run under -race in CI).
func TestSharedClient(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(rowsProgram); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for _, q := range []string{"?- num(X, S).", "?- reach(X, Y)."} {
		want, err := tb.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(q string, want []rel.Tuple) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := c.Query(q, wire.QueryOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRows(got.Rows, want) {
					t.Errorf("%s: got %v, want %v", q, got.Rows, want)
					return
				}
			}
		}(q, want.Rows)
	}
	wg.Wait()
}
