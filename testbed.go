// Package dkbms is a data/knowledge base management testbed: a Go
// reproduction of the D/KBMS described in "A Data/Knowledge Base
// Management Testbed and Experimental Results on Data/Knowledge Base
// Query and Update Processing" (Ramnarayan & Lu, SIGMOD 1988).
//
// The testbed is layered exactly as the paper's system:
//
//   - a Knowledge Manager (internal/core and friends) that compiles
//     pure, function-free Horn-clause queries into evaluation programs
//     of SQL statements — rule parser, workspace and stored D/KB
//     managers, semantic checker with type inference, a generalized
//     magic-sets optimizer, and a code generator;
//   - a relational DBMS (internal/db over internal/sql, plan, exec,
//     catalog, index, storage) providing SQL with embedded cursors over
//     slotted-page heap storage with B+tree indexes — the stand-in for
//     the paper's commercial RDBMS;
//   - a Run Time Library (internal/rtlib) evaluating least fixed points
//     bottom-up by naive or semi-naive iteration over the SQL interface.
//
// Typical use:
//
//	tb := dkbms.NewMemory()
//	defer tb.Close()
//	tb.MustLoad(`
//	    parent(john, mary). parent(mary, ann).
//	    ancestor(X, Y) :- parent(X, Y).
//	    ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//	`)
//	res, err := tb.Query("?- ancestor(john, W).", nil)
package dkbms

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dkbms/internal/codegen"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/stored"
)

// ErrClosed is returned by every Testbed operation attempted after
// Close.
var ErrClosed = errors.New("dkbms: testbed is closed")

// Testbed is one D/KBMS instance: a workspace D/KB, a DBMS, and a
// stored D/KB inside that DBMS.
//
// A Testbed is not safe for concurrent use; callers running queries
// from multiple goroutines must serialize access or wrap the testbed in
// a ConcurrentTestbed, which lets read-only queries run concurrently
// while serializing updates.
type Testbed struct {
	ws *core.Workspace
	db *db.DB
	st *stored.Manager
	// ruleGen is the rule-base generation a ConcurrentTestbed publishes:
	// its plan cache keeps a compiled program while it stands still. A
	// write moves it once, at its first rule change (changeRules).
	ruleGen uint64
	// published is set when a ConcurrentTestbed publishes ws in a
	// snapshot: the next rule change mutates a clone.
	published bool
	// closed is set by Close; every later operation returns ErrClosed.
	closed bool
}

// newTestbed wraps an open database whose stored D/KB is bootstrapped.
func newTestbed(d *db.DB, st *stored.Manager) *Testbed {
	return &Testbed{ws: core.NewWorkspace(), db: d, st: st}
}

// NewMemory opens a testbed over an in-memory database.
func NewMemory() *Testbed {
	d := db.OpenMemory()
	st, err := stored.Open(d, stored.Options{})
	if err != nil {
		// A fresh in-memory database cannot fail to bootstrap.
		panic(fmt.Sprintf("dkbms: bootstrap stored D/KB: %v", err))
	}
	return newTestbed(d, st)
}

// Open opens (creating if needed) a file-backed testbed.
func Open(path string) (*Testbed, error) {
	d, err := db.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := stored.Open(d, stored.Options{})
	if err != nil {
		d.Close()
		return nil, err
	}
	return newTestbed(d, st), nil
}

// Close shuts the testbed down, flushing the database. A second Close,
// like any other operation on a closed testbed, returns ErrClosed.
func (tb *Testbed) Close() error {
	if tb.closed {
		return ErrClosed
	}
	tb.closed = true
	return tb.db.Close()
}

// DB exposes the underlying DBMS (for direct SQL, ad-hoc inspection and
// the benchmark harness).
func (tb *Testbed) DB() *db.DB { return tb.db }

// Stored exposes the stored-D/KB manager.
func (tb *Testbed) Stored() *stored.Manager { return tb.st }

// Workspace exposes the workspace D/KB.
func (tb *Testbed) Workspace() *core.Workspace { return tb.ws }

// --- Write path ---

// changeRules is called before a write changes the rule base: it adds
// or commits rules, or creates a fact relation (which can change the
// mixed rules/facts normalization of compiled programs). The first
// change after a ConcurrentTestbed published the workspace clones it,
// so pinned snapshots keep theirs, and moves ruleGen.
func (tb *Testbed) changeRules() {
	if tb.published {
		tb.ws = tb.ws.Clone()
		tb.ruleGen++
		tb.published = false
	}
}

// Load parses a Horn-clause program and enters it into the workspace
// D/KB, clause by clause in program order. Facts are materialized
// immediately into extensional relations, the first fact of a
// predicate creating its relation (and no index — see
// CreateFactIndex); rules stay in the workspace until Update commits
// them to the stored D/KB. Queries are not allowed in Load input.
func (tb *Testbed) Load(src string) error {
	if tb.closed {
		return ErrClosed
	}
	prog, err := dlog.ParseProgram(src)
	if err != nil {
		return parseErr(err)
	}
	if len(prog.Queries) > 0 {
		return fmt.Errorf("%w: Load input contains a query; use Query", ErrSemantic)
	}
	for _, cl := range prog.Clauses {
		if !cl.IsFact() {
			tb.changeRules()
			if err := tb.ws.AddClause(cl); err != nil {
				return semanticErr(err)
			}
			continue
		}
		if !tb.db.HasTable(BaseTableName(cl.Head.Pred)) {
			tb.changeRules()
		}
		tu := make(rel.Tuple, len(cl.Head.Args))
		for i, a := range cl.Head.Args {
			tu[i] = a.Val
		}
		if err := tb.st.InsertFacts(cl.Head.Pred, []rel.Tuple{tu}); err != nil {
			return err
		}
	}
	return nil
}

// MustLoad is Load panicking on error, for examples and tests.
func (tb *Testbed) MustLoad(src string) {
	if err := tb.Load(src); err != nil {
		panic(err)
	}
}

// AssertTuples bulk-loads facts for one predicate (the workload
// generators and the loader use this), creating its relation on first
// use. Only the plain Testbed has it: no snapshot is published.
func (tb *Testbed) AssertTuples(pred string, tuples []rel.Tuple) error {
	if tb.closed {
		return ErrClosed
	}
	return tb.st.InsertFacts(pred, tuples)
}

// CreateFactIndex builds a B+tree index on the given columns (0-based)
// of a fact relation.
func (tb *Testbed) CreateFactIndex(pred string, cols ...int) error {
	if tb.closed {
		return ErrClosed
	}
	return tb.st.CreateFactIndex(pred, cols)
}

// Retract deletes the stored facts the pattern atom matches, which are
// the facts the same atom answers as a query: constant arguments must
// match exactly, a variable matches anything at its first occurrence
// and the value there at every later one (retract(parent(john, X))
// removes every parent fact about john, retract(p(X, X)) every p fact
// whose columns are equal; `_` is a variable like any other). It
// returns the number of facts removed; retracting from a predicate with
// no fact relation removes nothing. Rules are not retractable — they
// live in the workspace until committed, and the stored rule base is
// append-only as in the paper.
func (tb *Testbed) Retract(pattern dlog.Atom) (int, error) {
	if tb.closed {
		return 0, ErrClosed
	}
	table := BaseTableName(pattern.Pred)
	t := tb.db.Catalog().Table(table)
	if t == nil {
		return 0, nil
	}
	if t.Schema.Len() != pattern.Arity() {
		return 0, fmt.Errorf("%w: retract %s: predicate has arity %d, pattern has %d",
			ErrSemantic, pattern.String(), t.Schema.Len(), pattern.Arity())
	}
	var where []string
	for i, a := range pattern.Args {
		// j is the variable's first column, if this is not it.
		j := slices.IndexFunc(pattern.Args[:i], func(b dlog.Term) bool { return b.IsVar() && b.Var == a.Var })
		switch {
		case !a.IsVar():
			where = append(where, fmt.Sprintf("c%d = %s", i, a.Val.SQL()))
		case j >= 0:
			where = append(where, fmt.Sprintf("c%d = c%d", i, j))
		}
	}
	filter := ""
	if len(where) > 0 {
		filter = " WHERE " + strings.Join(where, " AND ")
	}
	// The rows matched are counted first: the count is what the DELETE
	// removes, and a pattern that matches nothing writes nothing.
	matched, err := tb.db.QueryCount("SELECT COUNT(*) FROM " + table + filter)
	if err != nil || matched == 0 {
		return 0, err
	}
	if err := tb.db.Exec("DELETE FROM " + table + filter); err != nil {
		return 0, err
	}
	return int(matched), nil
}

// RetractSrc is Retract for a source-syntax pattern ("parent(john, X)."
// — the trailing period optional).
func (tb *Testbed) RetractSrc(src string) (int, error) {
	pattern, err := parseRetract(src)
	if err != nil {
		return 0, err
	}
	return tb.Retract(pattern)
}

// parseRetract parses a source-syntax retract pattern (trailing period
// optional, rules rejected).
func parseRetract(src string) (dlog.Atom, error) {
	src = strings.TrimSpace(src)
	if !strings.HasSuffix(src, ".") {
		src += "."
	}
	c, err := dlog.ParseClause(src)
	if err != nil {
		return dlog.Atom{}, parseErr(err)
	}
	if len(c.Body) > 0 {
		return dlog.Atom{}, fmt.Errorf("%w: retract takes a fact pattern, not a rule", ErrSemantic)
	}
	return c.Head, nil
}

// Update commits the workspace rules into the stored D/KB (paper §4.3),
// incrementally maintaining the compiled rule storage structures, and
// clears the workspace. It returns the update-time breakdown.
func (tb *Testbed) Update() (stored.UpdateStats, error) {
	if tb.closed {
		return stored.UpdateStats{}, ErrClosed
	}
	tb.changeRules()
	st, err := tb.st.Update(tb.ws.Rules())
	if err == nil {
		tb.ws.Clear()
	}
	return st, err
}

// QueryOptions tune query compilation and evaluation.
type QueryOptions struct {
	// Naive selects naive LFP evaluation (default is semi-naive).
	Naive bool
	// NoOptimize disables the Optimizer's rewriting: magic sets or
	// factoring. By default it applies whenever the query or a relevant
	// rule carries a constant binding, and is the identity otherwise —
	// the paper's §6 dynamic on/off decision, made by the optimizer
	// itself. A bound query on a linear recursion is factored (a
	// reachability set from the constant plus one answer join, both
	// linear in the answer); every other bound program gets generalized
	// magic sets.
	NoOptimize bool
	// Parallel is ignored: evaluation is sequential. Kept for benchmark/
	// only, whose per-layer probe sets it; see benchseam.go.
	Parallel bool
	// Trace records the query's execution as a span tree — compilation
	// phases, evaluation nodes, LFP iterations with delta cardinalities,
	// and the operator trees of the generated SQL — in
	// QueryResult.Trace. Off by default; the off state costs only nil
	// checks.
	Trace bool
	// QueryID tags the query for observability: it is stamped into the
	// result, the span trace and (on the server) the structured log and
	// slow-query ring, and travels over the wire so client and server
	// agree on the ID. 0 (the default) mints a fresh ID per query.
	QueryID uint64
}

// QueryResult is the answer to a D/KB query plus its cost breakdown.
type QueryResult struct {
	// Vars names the answer columns (query variables in order).
	Vars []string
	// Rows are the answer tuples; nil from ConcurrentTestbed.QueryShared,
	// which returns the answer's row block instead.
	Rows []rel.Tuple
	// Compile and Eval are the paper's t_c and t_e breakdowns. A memo
	// hit (Cache "result") carries those of the evaluation it memoized:
	// no compilation or evaluation ran for it.
	Compile core.CompileStats
	Eval    rtlib.Stats
	// Optimized reports whether magic sets or factoring was applied.
	Optimized bool
	// Strategy is the LFP strategy used.
	Strategy rtlib.Strategy
	// Trace is the recorded span tree (nil unless QueryOptions.Trace was
	// set). Render it with Trace.Format().
	Trace *obs.Trace
	// Cache is the plan-cache outcome when the query went through a
	// ConcurrentTestbed: "result" (answered from the memoized result,
	// whose Compile, Eval and Iterations it reports), "plan" (compiled
	// program reused, re-evaluated — as after a commit that moves the
	// memo's inputs) or "miss" (full compile). Empty on the plain Testbed
	// path, which has no cache.
	Cache string
	// Snapshot is the generation of the pinned snapshot the query ran
	// against when it went through a ConcurrentTestbed (0 on the plain
	// Testbed path, which reads live state).
	Snapshot uint64
	// QueryID is the ID this query ran under (caller-supplied via
	// QueryOptions.QueryID or minted). Format it with obs.FormatQueryID.
	QueryID uint64
}

// Iterations returns the total LFP iteration count across the
// evaluation-order nodes, a non-recursive node counting one. A memoized
// hit reports the count of the evaluation it memoized, as it reports
// that evaluation's Eval.
func (r *QueryResult) Iterations() int64 {
	var n int64
	for _, ns := range r.Eval.Nodes {
		n += int64(ns.Iterations)
	}
	return n
}

// Query compiles and evaluates a Horn-clause query ("?- goal, goal.")
// against the workspace and stored D/KBs. opts may be nil for defaults
// (semi-naive, magic sets on). Cancellation is ConcurrentTestbed's:
// its QueryContext aborts an evaluation at the next LFP iteration
// boundary.
func (tb *Testbed) Query(src string, opts *QueryOptions) (*QueryResult, error) {
	q, err := dlog.ParseQuery(src)
	if err != nil {
		return nil, parseErr(err)
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	qid, tr := queryTrace(opts)
	compiled, err := tb.compile(tb.ws, tb.db, tb.st, q, opts, tr)
	if err != nil {
		return nil, err
	}
	res, _, err := tb.evaluate(context.TODO(), tb.db, compiled, opts, tr, false)
	if err != nil {
		return nil, err
	}
	res.QueryID = qid
	return res, nil
}

// queryTrace returns the ID a query runs under — opts.QueryID, or a
// minted one when that is 0 — and, when opts.Trace is set, the query's
// trace, its root tagged with the ID.
func queryTrace(opts *QueryOptions) (uint64, *obs.Trace) {
	qid := opts.QueryID
	if qid == 0 {
		qid = obs.NewQueryID()
	}
	var tr *obs.Trace
	if opts.Trace {
		tr = obs.NewTrace("query")
		tr.Root().SetInt("query_id", int64(qid))
	}
	return qid, tr
}

// Compile runs only the Knowledge Manager pipeline, returning the
// evaluation program (used by benchmarks that measure t_c and t_e
// separately, and by the shell's .explain).
func (tb *Testbed) Compile(q dlog.Query, opts *QueryOptions) (*core.Compiled, error) {
	return tb.compile(tb.ws, tb.db, tb.st, q, opts, nil)
}

// compile runs the Knowledge Manager pipeline against an explicit
// workspace, database and rule source: the testbed's own, or — from a
// ConcurrentTestbed — a pinned snapshot's frozen workspace and views
// of its table map (db.DB.View), so that rule extraction, dictionary reads and
// schema lookups all see one consistent engine state.
func (tb *Testbed) compile(ws *core.Workspace, d *db.DB, st *stored.Manager, q dlog.Query, opts *QueryOptions, tr *obs.Trace) (*core.Compiled, error) {
	if tb.closed {
		return nil, ErrClosed
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	cp := &core.Compiler{WS: ws, DB: d, Stored: st}
	compiled, err := cp.Compile(q, core.CompileOptions{Optimize: !opts.NoOptimize, Trace: tr})
	if err != nil {
		return nil, semanticErr(err)
	}
	return compiled, nil
}

// Evaluate runs a compiled program under opts.QueryID, or a minted ID,
// as Query does. When opts.Trace is set the result carries an
// evaluation-only trace (compilation happened elsewhere — e.g. in
// Compile), its root tagged with the ID.
func (tb *Testbed) Evaluate(compiled *core.Compiled, opts *QueryOptions) (*QueryResult, error) {
	if opts == nil {
		opts = &QueryOptions{}
	}
	qid, tr := queryTrace(opts)
	res, _, err := tb.evaluate(context.TODO(), tb.db, compiled, opts, tr, false)
	if err != nil {
		return nil, err
	}
	res.QueryID = qid
	return res, nil
}

// evaluate runs a compiled program against an explicit database: the
// testbed's own, or a snapshot-bound view, so that the run-time library
// reads frozen base-table versions while its session-private temp tables
// still land in the live catalog, and are dropped when it ends. With
// rowBlock the answer is read as a row block, returned beside a result
// whose Rows are nil (rtlib.EvaluateBlock).
func (tb *Testbed) evaluate(ctx context.Context, d *db.DB, compiled *core.Compiled, opts *QueryOptions, tr *obs.Trace, rowBlock bool) (*QueryResult, []byte, error) {
	if tb.closed {
		return nil, nil, ErrClosed
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("dkbms: query canceled: %w", err)
		}
	}
	strategy := rtlib.SemiNaive
	if opts.Naive {
		strategy = rtlib.Naive
	}
	ropts := rtlib.Options{Strategy: strategy, Trace: tr, Ctx: ctx}
	var res *rtlib.Result
	var block []byte
	var err error
	if rowBlock {
		res, block, err = rtlib.EvaluateBlock(d, compiled.Program, ropts)
	} else {
		res, err = rtlib.Evaluate(d, compiled.Program, ropts)
	}
	if err != nil {
		return nil, nil, err
	}
	tr.Finish()
	return &QueryResult{
		Vars:      compiled.Vars,
		Rows:      res.Rows,
		Compile:   compiled.Stats,
		Eval:      res.Stats,
		Optimized: compiled.Optimized,
		Strategy:  strategy,
		Trace:     tr,
	}, block, nil
}

// Format renders a query result as an aligned text table (the shell and
// examples use it).
func (r *QueryResult) Format() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Vars, "\t"))
	b.WriteByte('\n')
	for _, tu := range r.Rows {
		for i, v := range tu {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BaseTableName exposes the extensional naming convention (cmd tools
// create fact relations directly through SQL for bulk loads).
func BaseTableName(pred string) string { return codegen.BaseTable(pred) }
