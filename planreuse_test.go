package dkbms

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/rel"
)

// TestPlanReusePinned pins how often an evaluation constructs operator
// trees, on unbound ancestor over a 16-edge chain (16 rounds), in three
// runs of one program on one database. Each run executes 50
// statements: the exit rule's INSERT, the copy into the first delta, 16
// rounds of the differentiated rule's INSERT and the termination
// COUNT(*), 15 promotions (the copy again) and the answer's read. The
// query rule query(X, Y) :- ancestor(X, Y) only renames ancestor, so
// the program has no node for it and reads the answer from ancestor's
// relation. They are five statements. A run re-binds a statement's tree
// on every execution after its first, except when the planner decides
// otherwise: once a run, when the delta (16 rows in round 1, one fewer
// each round after) drops below the 16 parent rows and the rule's join
// starts from it, hashing it.
//
//   - The first run finds no tree kept: each statement constructs its
//     tree on its first execution, so 5 + 1 builds and 50 − 6 = 44
//     reuses. When it ends, each statement's tree is shed.
//   - A traced run constructs a tree for every rule execution — the
//     exit rule and the 16 rounds' rule — because tracing rewrites the
//     tree it instruments: 17 builds. Its untraced copies, counts and
//     read re-bind the trees the first run shed on every execution,
//     their first included: 16 + 16 + 1 = 33 reuses.
//   - A second untraced run re-binds every shed tree. The rule's was
//     shed hashing the delta, so the planner's one flip is
//     constructed twice: in round 1, whose delta is as large as parent,
//     and in round 2, back to hashing the delta. 2 builds, 48 reuses.
func TestPlanReusePinned(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	var src string
	for i := 0; i < 16; i++ {
		src += fmt.Sprintf("parent(n%d, n%d).\n", i, i+1)
	}
	tb.MustLoad(src + `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	q, err := dlog.ParseQuery("?- ancestor(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace          bool
		builds, reuses int64
	}{
		{false, 5 + 1, 44},
		{true, 17, 16 + 16 + 1},
		{false, 2, 50 - 2},
	} {
		opts := &QueryOptions{NoOptimize: true, Trace: tc.trace}
		compiled, err := tb.Compile(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := tb.DB().StatsSnapshot()
		res, err := tb.Evaluate(compiled, opts)
		if err != nil {
			t.Fatal(err)
		}
		after := tb.DB().StatsSnapshot()
		if len(res.Rows) != 136 || res.Iterations() != 16 {
			t.Fatalf("trace=%v: %d answers in %d rounds, want 136 in 16", tc.trace, len(res.Rows), res.Iterations())
		}
		builds, reuses := after.Builds-before.Builds, after.Reuses-before.Reuses
		if executions := after.Selects - before.Selects + after.Inserts - before.Inserts; builds+reuses != executions {
			t.Errorf("trace=%v: %d builds + %d reuses, %d executions", tc.trace, builds, reuses, executions)
		}
		if builds != tc.builds || reuses != tc.reuses {
			t.Errorf("trace=%v: %d builds, %d reuses; pinned %d, %d", tc.trace, builds, reuses, tc.builds, tc.reuses)
		}
	}
}

// TestKMReadsRebindTrees: the Knowledge Manager's reads — the
// extraction of the rules relevant to a predicate and the column
// dictionaries' reads — are prepared once, with each predicate name a
// value parameter ?n, and keep their operator trees for the manager's
// life; an execution with another name re-binds the tree to it. So k
// compiles over k distinct predicates build each statement's tree at
// most once, in the first compile, and every later execution re-binds.
func TestKMReadsRebindTrees(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	const k = 8
	src := "parent(a, b).\nparent(b, c).\n"
	for i := 0; i < k; i++ {
		src += fmt.Sprintf("anc%d(X, Y) :- parent(X, Y).\nanc%d(X, Y) :- parent(X, Z), anc%d(Z, Y).\n", i, i, i)
	}
	tb.MustLoad(src)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	var builds, reuses, firstReads int64
	for i := 0; i < k; i++ {
		q, err := dlog.ParseQuery(fmt.Sprintf("?- anc%d(X, Y).", i))
		if err != nil {
			t.Fatal(err)
		}
		before := tb.DB().StatsSnapshot()
		if _, err := tb.Compile(q, nil); err != nil {
			t.Fatal(err)
		}
		after := tb.DB().StatsSnapshot()
		b, r, reads := after.Builds-before.Builds, after.Reuses-before.Reuses, after.Selects-before.Selects
		if b+r != reads || reads == 0 {
			t.Fatalf("compile %d: %d builds + %d reuses, %d reads", i, b, r, reads)
		}
		if i == 0 {
			firstReads = reads
		} else if b != 0 {
			t.Errorf("compile %d, over anc%d: built %d trees, want 0: a read with another predicate re-binds", i, i, b)
		}
		builds, reuses = builds+b, reuses+r
	}
	if builds > firstReads {
		t.Errorf("%d compiles built %d trees; the first executes %d reads", k, builds, firstReads)
	}
	t.Logf("%d compiles: %d builds, %d reuses", k, builds, reuses)
}

// TestConcurrentRunsShareStatementTrees: two goroutines evaluate the
// unbound ancestor program and a bound (factored) one in turn on a
// ConcurrentTestbed while a third commits LOADs and RETRACTs of parent
// facts. Every query text is new — its variables are numbered — so
// every query is compiled and evaluated, not served from a memo. The
// programs' statements are cached on the database, each keeping one
// operator tree, so the two runs bind their own snapshot versions and
// temp tables to one statement's tree in turn, and one run's
// end-of-run Shed falls between the other's executions. Every answer
// must equal a fresh plain Testbed's over the facts of the generation
// it was evaluated at, and more executions must re-bind a kept tree
// than construct one: a tree never handed back would be constructed
// again at every execution.
func TestConcurrentRunsShareStatementTrees(t *testing.T) {
	const rules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`
	const chain = 12
	var base []rel.Tuple
	for i := 0; i < chain; i++ {
		base = append(base, edgeTuple(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)))
	}
	tb := NewMemory()
	if err := tb.AssertTuples("parent", base); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(rules)
	c := NewConcurrent(tb)
	defer c.Close()
	// Prepare both programs' statements before counting.
	for _, text := range []string{"?- ancestor(X, Y).", "?- ancestor(n0, Y)."} {
		if _, err := c.Query(text, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := tb.DB().StatsSnapshot()

	var mu sync.Mutex
	published := map[uint64][]rel.Tuple{c.snaps.Current().Gen: base}
	type served struct {
		ref  string // the query as the reference asks it
		gen  uint64
		rows []string
	}
	var got []served
	var wg sync.WaitGroup
	var reads atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				text := fmt.Sprintf("?- ancestor(X%d%d, Y%d%d).", g, i, g, i)
				ref := "?- ancestor(X, Y)."
				if i%2 == 1 {
					n := (g + i) % chain
					text = fmt.Sprintf("?- ancestor(n%d, Y%d%d).", n, g, i)
					ref = fmt.Sprintf("?- ancestor(n%d, Y).", n)
				}
				res, err := c.Query(text, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got = append(got, served{ref, res.Snapshot, rowSet(res.Rows)})
				mu.Unlock()
				reads.Add(1)
			}
		}(g)
	}
	// settle lets the readers evaluate a few queries before the next
	// commit.
	settle := func() {
		for n := reads.Load() + 4; reads.Load() < n; {
			runtime.Gosched()
		}
	}
	r := rand.New(rand.NewSource(1))
	facts := base
	for i := 0; i < 12; i++ {
		settle()
		leaf := fmt.Sprintf("n%d", r.Intn(chain))
		if err := c.Load(fmt.Sprintf("parent(%s, f%d).", leaf, i)); err != nil {
			t.Fatal(err)
		}
		facts = append(slices.Clip(facts), edgeTuple(leaf, fmt.Sprintf("f%d", i)))
		mu.Lock()
		published[c.snaps.Current().Gen] = facts
		mu.Unlock()
		settle()
		if i%3 == 2 {
			if _, err := c.RetractSrc(fmt.Sprintf("parent(%s, f%d)", leaf, i)); err != nil {
				t.Fatal(err)
			}
			facts = facts[:len(facts)-1]
			mu.Lock()
			published[c.snaps.Current().Gen] = facts
			mu.Unlock()
		}
	}
	settle()
	close(done)
	wg.Wait()
	after := tb.DB().StatsSnapshot()

	refs := map[uint64]*Testbed{}
	defer func() {
		for _, ref := range refs {
			ref.Close()
		}
	}()
	for _, s := range got {
		ref := refs[s.gen]
		if ref == nil {
			facts, ok := published[s.gen]
			if !ok {
				t.Fatalf("%s: no generation %d was published", s.ref, s.gen)
			}
			ref = NewMemory()
			refs[s.gen] = ref
			if err := ref.AssertTuples("parent", facts); err != nil {
				t.Fatal(err)
			}
			ref.MustLoad(rules)
		}
		res, err := ref.Query(s.ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowSet(res.Rows); !slices.Equal(s.rows, want) {
			t.Fatalf("%s at generation %d: %v, a fresh Testbed's %v", s.ref, s.gen, s.rows, want)
		}
	}
	builds, reuses := after.Builds-before.Builds, after.Reuses-before.Reuses
	if reuses <= builds {
		t.Errorf("%d evaluations: %d executions re-bound a kept tree, %d constructed one", len(got), reuses, builds)
	}
	t.Logf("%d evaluations over %d generations: %d re-bound, %d constructed", len(got), len(refs), reuses, builds)
}
