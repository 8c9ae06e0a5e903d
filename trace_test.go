package dkbms

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dkbms/internal/obs"
	"dkbms/internal/workload"
)

// sumDeltas adds up the per-iteration delta(pred) attributes across the
// whole trace (the "iteration 0" seed span included). For an unbound
// query over one recursive clique this must equal the answer row count:
// every answer tuple is new in exactly one iteration.
func sumDeltas(root *obs.Span, pred string) (sum int64, loopIters int) {
	for _, it := range root.FindAll("iteration ") {
		if d, ok := it.Int("delta(" + pred + ")"); ok {
			sum += d
		}
		if it.Name != "iteration 0" {
			loopIters++
		}
	}
	return sum, loopIters
}

// TestTraceAncestorIterations pins the trace against the known answers
// of EXPERIMENTS.md Test 6: ancestor on a 1022-edge full binary tree
// reaches fixpoint in 10 naive / 9 semi-naive iterations, and the
// per-iteration delta cardinalities sum to the closure size.
func TestTraceAncestorIterations(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(10)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	// Closure of a depth-10 full binary tree: each node at depth d has d
	// proper ancestors, so |ancestor| = sum d*2^d for d=1..9 = 8194.
	const wantRows = 8194
	cases := []struct {
		name  string
		opts  QueryOptions
		iters int
	}{
		{"naive", QueryOptions{Naive: true, NoOptimize: true, Trace: true}, 10},
		{"semi-naive", QueryOptions{NoOptimize: true, Trace: true}, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			res, err := tb.Query("?- ancestor(X, W).", &opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != wantRows {
				t.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
			}
			root := res.Trace.Root()
			if root == nil {
				t.Fatal("Trace requested but absent from the result")
			}
			sum, iters := sumDeltas(root, "ancestor")
			if iters != tc.iters {
				t.Errorf("%d LFP iterations, want %d", iters, tc.iters)
			}
			if sum != wantRows {
				t.Errorf("iteration deltas sum to %d, want %d", sum, wantRows)
			}
			// The compile phases and the eval span must both be present.
			if root.Find("compile") == nil || root.Find("eval") == nil {
				t.Errorf("missing compile/eval spans:\n%s", res.Trace.Format())
			}
		})
	}
}

// TestTraceOperatorCounts checks the per-operator row counters: the
// exit rule of the ancestor clique scans the 1022-tuple parent relation
// and its top operator emits exactly those 1022 seed tuples.
func TestTraceOperatorCounts(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(10)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	res, err := tb.Query("?- ancestor(X, W).", &QueryOptions{NoOptimize: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace.Root()
	zero := root.Find("iteration 0")
	if zero == nil {
		t.Fatalf("no iteration 0 span:\n%s", res.Trace.Format())
	}
	rule := zero.Find("rule ancestor")
	if rule == nil || len(rule.Children) == 0 {
		t.Fatalf("exit rule carries no operator tree:\n%s", res.Trace.Format())
	}
	// The rule span's direct child is the root of the operator tree; the
	// exit rule ancestor(X,Y) :- parent(X,Y) emits one tuple per edge.
	top := rule.Children[0]
	if rows, ok := top.Int("rows"); !ok || rows != 1022 {
		t.Errorf("exit-rule top operator %q emitted %d rows, want 1022", top.Name, rows)
	}
	scans := rule.FindAll("scan(")
	scans = append(scans, rule.FindAll("idxscan(")...)
	if len(scans) == 0 {
		t.Errorf("no scan operator under the exit rule:\n%s", res.Trace.Format())
	}
	// The formatted tree is the shell's .trace output; spot-check shape.
	text := res.Trace.Format()
	if !strings.Contains(text, "iteration 1") || !strings.Contains(text, "delta(ancestor)=") {
		t.Errorf("formatted trace lacks iteration detail:\n%s", text)
	}
}

// TestTraceSameGeneration runs the classic same-generation workload
// with tracing under all three strategies and checks the delta-sum
// invariant against the hand-computed closure (14 sg pairs).
func TestTraceSameGeneration(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`
up(a, root). up(b, root). up(c, a). up(d, a). up(e, b).
flat(root, root).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
down(X, Y) :- up(Y, X).
`)
	// sg closure: (root,root); {a,b}x{a,b}; then {c,d,e} pairs sharing
	// grandparent generation — 1 + 4 + 9 = 14 tuples.
	const wantRows = 14
	for _, tc := range []struct {
		name string
		opts QueryOptions
	}{
		{"naive", QueryOptions{Naive: true, NoOptimize: true, Trace: true}},
		{"semi-naive", QueryOptions{NoOptimize: true, Trace: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			res, err := tb.Query("?- sg(X, Y).", &opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != wantRows {
				t.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
			}
			sum, iters := sumDeltas(res.Trace.Root(), "sg")
			if sum != wantRows {
				t.Errorf("iteration deltas sum to %d, want %d:\n%s", sum, wantRows, res.Trace.Format())
			}
			if iters < 3 {
				t.Errorf("only %d LFP iterations; want at least 3 (new tuples at depths 1 and 2, plus the empty fixpoint round)", iters)
			}
		})
	}
}

// TestTraceOffByDefault: without the option no trace is built, and the
// result (plan-cache interactions included) stays trace-free.
func TestTraceOffByDefault(t *testing.T) {
	tb := familyTB(t)
	res, err := tb.Query("?- parent(john, W).", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}
}

// cancelAfter is a context whose Err() trips after a fixed number of
// polls: the first poll (the evaluator's upfront check) passes, a later
// one — at an LFP iteration boundary — reports cancellation. This makes
// the mid-evaluation cancel path deterministic.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestQueryContextCancel: an expired deadline maps to DeadlineExceeded,
// a cancel between LFP iterations stops the evaluation, and the testbed
// answers afterwards. A failed query stores no memo, so every case
// evaluates.
func TestQueryContextCancel(t *testing.T) {
	tb := NewMemory()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(6)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	ctb := NewConcurrent(tb)
	defer ctb.Close()

	dctx, dcancel := context.WithTimeout(context.Background(), -1)
	defer dcancel()
	if _, err := ctb.QueryContext(dctx, "?- ancestor(X, W).", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline query: %v", err)
	}

	mid := &cancelAfter{Context: context.Background(), after: 1}
	_, err := ctb.QueryContext(mid, "?- ancestor(X, W).", &QueryOptions{NoOptimize: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-evaluation cancel: %v", err)
	}
	if mid.calls < 2 {
		t.Fatalf("context polled %d times; the iteration-boundary check never ran", mid.calls)
	}

	res, err := ctb.Query("?- ancestor(X, W).", nil)
	if err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query after cancel: no rows")
	}
}

// TestConcurrentQueryContextCancel: a pre-cancelled context is refused
// before evaluation starts, and the testbed answers afterwards.
func TestConcurrentQueryContextCancel(t *testing.T) {
	ctb := NewConcurrent(NewMemory())
	defer ctb.Close()
	if err := ctb.Load(`parent(a, b). ancestor(X, Y) :- parent(X, Y).`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctb.QueryContext(ctx, "?- ancestor(a, W).", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled concurrent query: %v", err)
	}
	if res, err := ctb.Query("?- ancestor(a, W).", nil); err != nil || len(res.Rows) != 1 {
		t.Fatalf("concurrent testbed unusable after cancel: %v", err)
	}
}

// TestTypedErrors walks every public mutation/query path and checks the
// error chain reaches the advertised sentinel via errors.Is.
func TestTypedErrors(t *testing.T) {
	tb := NewMemory()
	defer tb.Close()
	tb.MustLoad(`parent(a, b).`)

	if err := tb.Load("this is not a clause"); !errors.Is(err, ErrParse) {
		t.Errorf("Load syntax error: %v", err)
	}
	if _, err := tb.Query("?- broken(", nil); !errors.Is(err, ErrParse) {
		t.Errorf("Query syntax error: %v", err)
	}
	if _, err := tb.RetractSrc("also broken("); !errors.Is(err, ErrParse) {
		t.Errorf("Retract syntax error: %v", err)
	}
	ctb := NewConcurrent(NewMemory())
	defer ctb.Close()
	if _, err := ctb.Query("?- broken(", nil); !errors.Is(err, ErrParse) {
		t.Errorf("concurrent Query syntax error: %v", err)
	}
	if _, err := ctb.Query("?- nosuch(X).", nil); !errors.Is(err, ErrUnknownPredicate) {
		t.Errorf("concurrent Query of an unknown predicate: %v", err)
	}
	if _, err := tb.Query("?- nosuch(X).", nil); !errors.Is(err, ErrUnknownPredicate) {
		t.Errorf("unknown predicate: %v", err)
	}
	// Asserting a non-ground fact is a semantic violation.
	if err := tb.Load("p(X)."); !errors.Is(err, ErrSemantic) {
		t.Errorf("non-ground fact: %v", err)
	}
}
