package rtlib

import (
	"fmt"
	"testing"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
)

// multiStratumProgram mirrors the paper's Figure 1 shape: two leaf
// self-recursive cliques over disjoint base relations feeding a mutual
// {p,q} clique, so the wavefront has real independent work.
func multiStratumProgram(t *testing.T) *codegen.Program {
	t.Helper()
	types := map[string][]rel.Type{
		"b1": {rel.TypeString, rel.TypeString},
		"b2": {rel.TypeString, rel.TypeString},
	}
	return compile(t, "p", types,
		"p(X, Y) :- p1(X, Z), q(Z, Y).",
		"q(X, Y) :- p(X, Y).",
		"p(X, Y) :- b1(X, Y).",
		"p1(X, Y) :- b1(X, Z), p1(Z, Y).",
		"p1(X, Y) :- b1(X, Y).",
		"p2(X, Y) :- b2(X, Z), p2(Z, Y).",
		"p2(X, Y) :- b2(X, Y).",
		"q(X, Y) :- p2(X, Y).",
	)
}

func TestWavefrontMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := db.OpenMemory()
			defer d.Close()
			loadEdges(t, d, "b1", "a>b", "b>c", "c>d", "d>e2")
			loadEdges(t, d, "b2", "b>x", "x>y", "y>z")
			prog := multiStratumProgram(t)
			seq, err := Evaluate(d, prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pool := sched.NewPool(workers)
			par, err := Evaluate(d, prog, Options{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if rowSet(seq.Rows) != rowSet(par.Rows) {
				t.Fatalf("wavefront disagrees:\nseq: %s\npar: %s", rowSet(seq.Rows), rowSet(par.Rows))
			}
			if pool.Stats().Submitted == 0 {
				t.Fatal("pool never saw a task")
			}
			if got := len(d.Catalog().Tables()); got != 2 {
				t.Fatalf("temp tables leaked: %d tables remain", got)
			}
		})
	}
}

func TestWavefrontNaiveStrategy(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "b1", "a>b", "b>c", "c>d")
	loadEdges(t, d, "b2", "b>x", "x>y")
	prog := multiStratumProgram(t)
	seq, err := Evaluate(d, prog, Options{Strategy: Naive})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	par, err := Evaluate(d, prog, Options{Strategy: Naive, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(seq.Rows) != rowSet(par.Rows) {
		t.Fatal("naive wavefront disagrees with sequential naive")
	}
}
