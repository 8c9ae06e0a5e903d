package dkbms_test

import (
	"fmt"
	"sort"

	"dkbms"
)

// Example shows the complete life of a query: facts and rules in,
// recursive answers out.
func Example() {
	tb := dkbms.NewMemory()
	defer tb.Close()

	tb.MustLoad(`
		parent(john, mary).  parent(mary, ann).
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
	`)

	res, err := tb.Query("?- ancestor(john, W).", nil)
	if err != nil {
		panic(err)
	}
	var names []string
	for _, row := range res.Rows {
		names = append(names, row[0].Str)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [ann mary]
}

// ExampleTestbed_Query demonstrates the evaluation knobs the paper's
// experiments turn: LFP strategy and magic-sets optimization.
func ExampleTestbed_Query() {
	tb := dkbms.NewMemory()
	defer tb.Close()
	tb.MustLoad(`
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`)

	naive, _ := tb.Query("?- path(a, W).", &dkbms.QueryOptions{Naive: true, NoOptimize: true})
	magic, _ := tb.Query("?- path(a, W).", nil)
	fmt.Println(len(naive.Rows), naive.Optimized, naive.Strategy)
	fmt.Println(len(magic.Rows), magic.Optimized, magic.Strategy)
	// Output:
	// 2 false naive
	// 2 true semi-naive
}

// ExampleTestbed_Update commits workspace rules to the stored D/KB,
// where later sessions (and queries) find them.
func ExampleTestbed_Update() {
	tb := dkbms.NewMemory()
	defer tb.Close()
	tb.MustLoad(`
		parent(a, b).
		anc(X, Y) :- parent(X, Y).
	`)
	st, err := tb.Update()
	if err != nil {
		panic(err)
	}
	fmt.Println(st.NewRules, tb.Stored().RuleCount())
	// Output: 1 1
}

// ExampleConcurrentTestbed_Query sends one query text four times: the
// shared plan cache compiles it on the first and answers the second
// from the memoized result. A fact load moves the memo's input and
// drops it, so the third re-evaluates the kept plan, and so does the
// fourth after a second load.
func ExampleConcurrentTestbed_Query() {
	c := dkbms.NewConcurrent(dkbms.NewMemory())
	defer c.Close()
	if err := c.Load(`
		parent(a, b).
		anc(X, Y) :- parent(X, Y).
		anc(X, Y) :- parent(X, Z), anc(Z, Y).
	`); err != nil {
		panic(err)
	}
	for _, facts := range []string{"", "", "parent(b, c).", "parent(c, d)."} {
		if facts != "" {
			if err := c.Load(facts); err != nil {
				panic(err)
			}
		}
		res, err := c.Query("?- anc(a, W).", nil)
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Cache, len(res.Rows))
	}
	// Output:
	// miss 1
	// result 1
	// plan 2
	// plan 3
}
