package rtlib

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
)

func TestParallelMatchesSequential(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	var edges []string
	for i := 0; i < 40; i++ {
		edges = append(edges, fmt.Sprintf("n%02d>n%02d", i, i+1))
		if i%3 == 0 {
			edges = append(edges, fmt.Sprintf("n%02d>n%02d", i, (i+7)%41))
		}
	}
	loadEdges(t, d, "e", edges...)
	prog := ancestorProgram(t)
	seq, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(d, prog, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(seq.Rows) != rowSet(par.Rows) {
		t.Fatalf("parallel disagrees:\nseq: %s\npar: %s", rowSet(seq.Rows), rowSet(par.Rows))
	}
}

func TestParallelMutualRecursion(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c", "c>d", "d>e2", "e2>a")
	prog := compile(t, "odd", stringPair,
		"odd(X, Y) :- e(X, Y).",
		"odd(X, Y) :- e(X, Z), even(Z, Y).",
		"even(X, Y) :- e(X, Z), odd(Z, Y).",
	)
	seq, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(d, prog, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(seq.Rows) != rowSet(par.Rows) {
		t.Fatal("parallel disagrees on mutual recursion")
	}
}

func TestParallelWithSeeds(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c")
	prog := compile(t, "m", stringPair, "m(Y) :- m(X), e(X, Y).")
	prog.Seeds = seedsFor("m", "a")
	res, err := Evaluate(d, prog, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(res.Rows) != "(a)|(b)|(c)" {
		t.Fatalf("rows: %s", rowSet(res.Rows))
	}
}

func TestParallelNoTempLeaks(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	loadEdges(t, d, "e", "a>b", "b>c")
	before := len(d.Catalog().Tables())
	prog := ancestorProgram(t)
	if _, err := Evaluate(d, prog, Options{Parallel: true}); err != nil {
		t.Fatal(err)
	}
	if after := len(d.Catalog().Tables()); after != before {
		t.Fatalf("leak: %d -> %d", before, after)
	}
}

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
			defer pool.Close()
			par, err := Evaluate(d, prog, Options{Parallel: true, Pool: pool})
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
	defer pool.Close()
	par, err := Evaluate(d, prog, Options{Strategy: Naive, Parallel: true, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if rowSet(seq.Rows) != rowSet(par.Rows) {
		t.Fatal("naive wavefront disagrees with sequential naive")
	}
}

// fanoutProgram has a single clique with many exit rules: one
// differential per rule in iteration 0, eight jobs at once.
func fanoutProgram(t *testing.T) *codegen.Program {
	t.Helper()
	types := map[string][]rel.Type{}
	var srcs []string
	for i := 0; i < 8; i++ {
		types[fmt.Sprintf("e%d", i)] = []rel.Type{rel.TypeString, rel.TypeString}
		srcs = append(srcs, fmt.Sprintf("anc(X, Y) :- e%d(X, Y).", i))
	}
	srcs = append(srcs, "anc(X, Y) :- e0(X, Z), anc(Z, Y).")
	return compile(t, "anc", types, srcs...)
}

// TestPoolLessParallelRunsInline: the executor of Parallel work is the
// shared pool's client or the calling goroutine, nothing else. Without
// a pool an evaluation with many jobs per round starts no goroutine
// (sampled from a monitor while it runs, and compared after) and
// returns the sequential answer.
func TestPoolLessParallelRunsInline(t *testing.T) {
	d := db.OpenMemory()
	defer d.Close()
	for i := 0; i < 8; i++ {
		loadEdges(t, d, fmt.Sprintf("e%d", i), "a>b", "b>c", "c>d", "d>e2", "e2>f")
	}
	prog := fanoutProgram(t)
	seq, err := Evaluate(d, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	base := runtime.NumGoroutine() // this goroutine, the monitor, the runtime's
	var par *Result
	for i := 0; i < 20 && err == nil; i++ {
		par, err = Evaluate(d, prog, Options{Parallel: true})
	}
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > int64(base) {
		t.Fatalf("pool-less Parallel evaluation ran with %d goroutines alive, %d before it", p, base)
	}
	if rowSet(seq.Rows) != rowSet(par.Rows) {
		t.Fatalf("pool-less Parallel disagrees:\nseq: %s\npar: %s", rowSet(seq.Rows), rowSet(par.Rows))
	}
}
