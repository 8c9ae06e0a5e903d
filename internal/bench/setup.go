package bench

import (
	"fmt"
	"time"

	"dkbms"
	"dkbms/internal/core"
	"dkbms/internal/dlog"
	"dkbms/internal/workload"
)

// chainStore builds a testbed whose stored D/KB holds nChains rule
// chains of the given length (wide chains carry one base predicate per
// rule). Base relations get one fact each so the dictionaries are
// populated.
func chainStore(nChains, length int, wide bool) (*dkbms.Testbed, []string, error) {
	tb := dkbms.NewMemory()
	var rules []dlog.Clause
	var heads, bases []string
	if wide {
		rules, heads, bases = workload.WideRuleChains(nChains, length)
	} else {
		rules, heads, bases = workload.RuleChains(nChains, length)
	}
	for _, b := range bases {
		if err := tb.AssertTuples(b, workload.ChainFacts()); err != nil {
			tb.Close()
			return nil, nil, err
		}
	}
	if _, err := tb.Stored().Update(rules); err != nil {
		tb.Close()
		return nil, nil, err
	}
	return tb, heads, nil
}

// compileOnce compiles a query against the testbed and returns its
// stats; the program is discarded.
func compileOnce(tb *dkbms.Testbed, q string, optimize bool) (dkbms.QueryResult, error) {
	query, err := dlog.ParseQuery(q)
	if err != nil {
		return dkbms.QueryResult{}, err
	}
	compiled, err := tb.Compile(query, &dkbms.QueryOptions{NoOptimize: !optimize})
	if err != nil {
		return dkbms.QueryResult{}, err
	}
	return dkbms.QueryResult{Compile: compiled.Stats}, nil
}

// treeStore builds a testbed with a full binary tree in the `parent`
// relation (plus an index on the source column, the configuration the
// paper's execution experiments assume) and the ancestor rules in the
// workspace.
func treeStore(depth int, indexed bool) (*dkbms.Testbed, error) {
	tb := dkbms.NewMemory()
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(depth)); err != nil {
		tb.Close()
		return nil, err
	}
	if indexed {
		if err := tb.CreateFactIndex("parent", 0); err != nil {
			tb.Close()
			return nil, err
		}
	}
	if err := tb.Load(ancestorRules); err != nil {
		tb.Close()
		return nil, err
	}
	return tb, nil
}

const ancestorRules = `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// listStore builds a testbed with a single list of the given length in
// `parent` (fine-grained selectivity control for the crossover sweep).
func listStore(length int, indexed bool) (*dkbms.Testbed, error) {
	tb := dkbms.NewMemory()
	if err := tb.AssertTuples("parent", workload.Lists(1, length)); err != nil {
		tb.Close()
		return nil, err
	}
	if indexed {
		if err := tb.CreateFactIndex("parent", 0); err != nil {
			tb.Close()
			return nil, err
		}
	}
	if err := tb.Load(ancestorRules); err != nil {
		tb.Close()
		return nil, err
	}
	return tb, nil
}

// runQuery executes a query and returns the result (for timing use
// res.Eval.Elapsed — query evaluation only, excluding compilation). It
// compiles with generalized magic sets forced where the Optimizer would
// factor, so that the figures measure the rewrite the paper measured.
func runQuery(tb *dkbms.Testbed, q string, opts dkbms.QueryOptions) (*dkbms.QueryResult, error) {
	query, err := dlog.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	cp := &core.Compiler{WS: tb.Workspace(), DB: tb.DB(), Stored: tb.Stored()}
	compiled, err := cp.Compile(query, core.CompileOptions{Optimize: !opts.NoOptimize, ForceMagic: true})
	if err != nil {
		return nil, err
	}
	return tb.Evaluate(compiled, &opts)
}

// evalTime runs the query reps times and returns the minimum
// evaluation-only time plus the last full result.
func evalTime(tb *dkbms.Testbed, q string, opts dkbms.QueryOptions, reps int) (time.Duration, *dkbms.QueryResult, error) {
	var last *dkbms.QueryResult
	best, err := measure(reps, func() (time.Duration, error) {
		res, err := runQuery(tb, q, opts)
		if err != nil {
			return 0, err
		}
		last = res
		return res.Eval.Elapsed, nil
	})
	if err != nil {
		return 0, nil, err
	}
	return best, last, nil
}

// queryAt poses the ancestor query rooted at a tree node.
func queryAt(node string) string {
	return fmt.Sprintf("?- ancestor(%s, W).", node)
}
