package dkbms

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// dryThenDerive is a mutual recursion in which one predicate runs dry
// and derives again while the other keeps deriving: p walks the chain
// e from n0 one node a round, and q derives only in the rounds after
// p's delta reaches a node g leaves (n2 and n6), feeding p in the round
// after that. So q's pending delta comes out empty and is dropped in
// most rounds, and a later round creates it again, under the name its
// round parity gives it.
func dryThenDerive() ([]dlog.Clause, map[string][]rel.Tuple) {
	rules := []dlog.Clause{
		dlog.MustParseClause("p(Y) :- s(Y)."),
		dlog.MustParseClause("p(Y) :- p(Z), e(Z, Y)."),
		dlog.MustParseClause("p(Y) :- q(Y)."),
		dlog.MustParseClause("q(Y) :- p(Z), g(Z, Y)."),
	}
	pair := func(a, b string) rel.Tuple { return rel.Tuple{rel.NewString(a), rel.NewString(b)} }
	facts := map[string][]rel.Tuple{
		"s": {{rel.NewString("n0")}},
		"g": {pair("n2", "m1"), pair("n6", "m2")},
	}
	for i := 0; i < 10; i++ {
		facts["e"] = append(facts["e"], pair(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)))
	}
	facts["e"] = append(facts["e"], pair("m1", "k1"), pair("m2", "k2"))
	return rules, facts
}

// TestDeltaNamesReused: with two delta names a predicate alternating by
// round parity, a predicate whose pending delta is dropped and later
// created again derives what the reference interpreter does, under
// semi-naive and naive evaluation, bound or not; and no run — finished,
// or cancelled through its context at any poll of the fixpoint — leaves
// a temp table in the catalog.
func TestDeltaNamesReused(t *testing.T) {
	rules, facts := dryThenDerive()
	tb := NewMemory()
	for pred, ts := range facts {
		if err := tb.AssertTuples(pred, ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range rules {
		if err := tb.Workspace().AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConcurrent(tb)
	defer c.Close()
	tables := len(tb.DB().Catalog().Tables())
	leftover := func(step string) {
		t.Helper()
		if n := len(tb.DB().Catalog().Tables()); n != tables {
			t.Fatalf("%s: %d tables in the catalog, %d before: %v", step, n, tables, tb.DB().Catalog().Tables())
		}
	}

	// The program does what it is for: in the semi-naive run q's
	// delta is empty in a round in which p's is not, and q derives in a
	// later round.
	res, err := c.Query("?- p(Y).", &QueryOptions{NoOptimize: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	dry, again := 0, false
	for _, it := range res.Trace.Root().FindAll("iteration ") {
		dp, _ := it.Int("delta(p)")
		dq, _ := it.Int("delta(q)")
		if dq == 0 && dp > 0 && it.Name != "iteration 0" {
			dry++
		} else if dq > 0 && dry > 0 {
			again = true
		}
	}
	if dry == 0 || !again {
		t.Fatalf("q ran dry in %d rounds while p derived, and derived again: %v\n%s", dry, again, res.Trace.Format())
	}

	for _, q := range []string{"?- p(Y).", "?- p(Y), e(m2, Y).", "?- q(Y)."} {
		query, err := dlog.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(refAnswer(query, rules, facts), "|")
		for _, mode := range allModes {
			opts := mode.opts
			opts.Trace = true // a traced query bypasses the memo
			res, err := c.Query(q, &opts)
			if err != nil {
				t.Fatalf("%s %s: %v", q, mode.name, err)
			}
			if got := strings.Join(rowSet(res.Rows), "|"); got != want {
				t.Fatalf("%s %s: engine disagrees with reference\n got: %s\nwant: %s", q, mode.name, got, want)
			}
			leftover(q + " " + mode.name)
		}
	}

	// Cancel the semi-naive run at each of its context polls in turn,
	// until one finishes: every cancelled run drops what it created.
	cancelled := 0
	for after := 1; ; after++ {
		ctx := &cancelAfter{Context: context.Background(), after: after}
		_, err := c.QueryContext(ctx, "?- p(Y).", &QueryOptions{NoOptimize: true, Trace: true})
		leftover(fmt.Sprintf("cancelled at poll %d", after))
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d: %v", after, err)
		}
		cancelled++
	}
	if cancelled < 10 {
		t.Fatalf("only %d polls to cancel at: the fixpoint was not cancelled mid-run", cancelled)
	}
}
