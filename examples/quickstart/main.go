// Quickstart: load a tiny data/knowledge base, pose a recursive query,
// and look at what the Knowledge Manager did under the hood.
package main

import (
	"fmt"
	"log"

	"dkbms"
)

func main() {
	tb := dkbms.NewMemory()
	defer tb.Close()

	// Facts go straight into the extensional database; rules wait in
	// the workspace D/KB until committed with Update.
	tb.MustLoad(`
% facts
parent(john, mary).   parent(john, bob).
parent(mary, ann).    parent(mary, tom).
parent(bob, lea).     parent(lea, zoe).

% rules
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)

	res, err := tb.Query("?- ancestor(john, W).", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("descendants of john:")
	fmt.Print(res.Format())

	fmt.Printf("\ncompiled in %v, evaluated in %v", res.Compile.Total, res.Eval.Elapsed)
	if res.Optimized {
		fmt.Print(" (optimized)")
	}
	fmt.Println()

	// The same query, unoptimized and with naive instead of semi-naive
	// LFP evaluation — the two knobs the paper's experiments turn.
	slow, err := tb.Query("?- ancestor(john, W).",
		&dkbms.QueryOptions{Naive: true, NoOptimize: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive + no optimization: same %d rows in %v\n",
		len(slow.Rows), slow.Eval.Elapsed)

	// Commit the workspace rules to the stored D/KB: they persist (for
	// file-backed testbeds) and future queries extract them through the
	// compiled rule storage structures.
	st, err := tb.Update()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d rules to the stored D/KB (%d reachability edges)\n",
		st.NewRules, tb.Stored().ReachableEdges())

	again, err := tb.Query("?- ancestor(mary, W).", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("descendants of mary (rules now pulled from the stored D/KB):")
	fmt.Print(again.Format())
}
