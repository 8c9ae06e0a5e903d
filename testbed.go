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
	"strings"

	"dkbms/internal/codegen"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/sched"
	"dkbms/internal/stored"
)

// ErrClosed is returned by every Testbed (and Prepared) operation
// attempted after Close.
var ErrClosed = errors.New("dkbms: testbed is closed")

// Testbed is one D/KBMS instance: a workspace D/KB, a DBMS, and a
// stored D/KB inside that DBMS.
//
// A Testbed is not safe for concurrent use; callers running queries
// from multiple goroutines must serialize access or wrap the testbed in
// a ConcurrentTestbed, which lets read-only queries run concurrently
// while serializing updates. (QueryOptions.Parallel is internal
// parallelism within one evaluation and does not change this.)
type Testbed struct {
	ws *core.Workspace
	db *db.DB
	st *stored.Manager
	// ruleGen counts rule-base changes; prepared queries recompile when
	// it moves past the generation they were compiled at.
	ruleGen uint64
	// dataGen counts extensional-data changes (fact inserts and
	// retractions). Cached query results are valid only while both
	// generations stand still; cached plans only depend on ruleGen.
	dataGen uint64
	// pool, when set (SetEvalPool), runs parallel evaluation work on a
	// shared scheduler; without one it runs inline.
	pool *sched.Pool
	// closed is set by Close; every later operation returns ErrClosed.
	closed bool
}

// SetEvalPool attaches a shared evaluation worker pool: queries run
// with QueryOptions.Parallel submit their independent evaluation-order
// nodes to it as a wavefront; without a pool they run in order on the
// calling goroutine. The caller retains ownership of the pool
// (ConcurrentTestbed wires and closes its own). Nil detaches.
func (tb *Testbed) SetEvalPool(p *sched.Pool) { tb.pool = p }

// NewMemory opens a testbed over an in-memory database.
func NewMemory() *Testbed {
	d := db.OpenMemory()
	st, err := stored.Open(d, stored.Options{})
	if err != nil {
		// A fresh in-memory database cannot fail to bootstrap.
		panic(fmt.Sprintf("dkbms: bootstrap stored D/KB: %v", err))
	}
	return &Testbed{ws: core.NewWorkspace(), db: d, st: st}
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
	return &Testbed{ws: core.NewWorkspace(), db: d, st: st}, nil
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

// Closed reports whether Close has been called.
func (tb *Testbed) Closed() bool { return tb.closed }

// DB exposes the underlying DBMS (for direct SQL, ad-hoc inspection and
// the benchmark harness).
func (tb *Testbed) DB() *db.DB { return tb.db }

// Stored exposes the stored-D/KB manager.
func (tb *Testbed) Stored() *stored.Manager { return tb.st }

// Workspace exposes the workspace D/KB.
func (tb *Testbed) Workspace() *core.Workspace { return tb.ws }

// Load parses a Horn-clause program and enters it into the workspace
// D/KB. Facts are materialized immediately into extensional relations;
// rules stay in the workspace until Update commits them to the stored
// D/KB. Queries are not allowed in Load input.
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
	for _, c := range prog.Clauses {
		if c.IsFact() {
			if err := tb.Assert(c.Head); err != nil {
				return err
			}
			continue
		}
		if err := tb.ws.AddClause(c); err != nil {
			return semanticErr(err)
		}
		tb.ruleGen++
	}
	return nil
}

// MustLoad is Load panicking on error, for examples and tests.
func (tb *Testbed) MustLoad(src string) {
	if err := tb.Load(src); err != nil {
		panic(err)
	}
}

// Assert adds one ground fact to the extensional database, creating the
// predicate's relation (and no index — see CreateFactIndex) on first
// use.
func (tb *Testbed) Assert(fact dlog.Atom) error {
	if !fact.IsGround() {
		return fmt.Errorf("%w: fact %s is not ground", ErrSemantic, fact.String())
	}
	tu := make(rel.Tuple, len(fact.Args))
	for i, t := range fact.Args {
		tu[i] = t.Val
	}
	return tb.AssertTuples(fact.Pred, []rel.Tuple{tu})
}

// AssertTuples bulk-loads facts for one predicate (the workload
// generators and the loader use this).
func (tb *Testbed) AssertTuples(pred string, tuples []rel.Tuple) error {
	if tb.closed {
		return ErrClosed
	}
	// Creating a new fact relation can change compiled programs (mixed
	// rules/facts normalization), so it bumps the rule generation;
	// appending to an existing relation does not.
	if !tb.db.HasTable(BaseTableName(pred)) {
		tb.ruleGen++
	}
	tb.dataGen++
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

// Retract deletes stored facts matching the pattern atom: constant
// arguments must match exactly, variable arguments match anything
// (retract(parent(john, X)) removes every parent fact about john). It
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
	_, where := retractFilter(pattern)
	stmt := "DELETE FROM " + table
	if where != "" {
		stmt += " WHERE " + where
	}
	before := t.Rows()
	if err := tb.db.Exec(stmt); err != nil {
		return 0, err
	}
	n := before - t.Rows()
	if n > 0 {
		tb.dataGen++
	}
	return n, nil
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

// retractFilter returns the extensional table and the SQL predicate
// (empty = match everything) selecting the facts a retract pattern
// removes. Retract and the concurrent commit path (which pre-counts
// matches to skip copy-on-write for no-op retractions) share it.
func retractFilter(pattern dlog.Atom) (table, where string) {
	table = BaseTableName(pattern.Pred)
	var parts []string
	for i, a := range pattern.Args {
		if a.IsVar() {
			continue
		}
		parts = append(parts, fmt.Sprintf("c%d = %s", i, a.Val.SQL()))
	}
	return table, strings.Join(parts, " AND ")
}

// QueryOptions tune query compilation and evaluation.
type QueryOptions struct {
	// Naive selects naive LFP evaluation (default is semi-naive).
	Naive bool
	// NoOptimize disables the magic-sets rewriting (default applies it
	// when the query carries constant bindings).
	NoOptimize bool
	// Adaptive consults the optimizer's selectivity heuristic to decide
	// whether to apply magic sets (the paper's proposed-but-not-
	// implemented dynamic strategy; see DESIGN.md extensions).
	Adaptive bool
	// Parallel evaluates independent PCG nodes as a dependency wavefront
	// on the shared scheduler pool (paper conclusion 7a at clique
	// granularity). Each clique runs the sequential LFP routine, so the
	// statements and the answer are those of a sequential evaluation;
	// without a pool attached the evaluation is sequential.
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
	// Maintenance selects how a ConcurrentTestbed keeps this query's
	// memoized answer when commits touch tables it reads: re-derive
	// from scratch, maintain incrementally through the commit's fact
	// deltas, or decide per commit by delta size (MaintAuto, the
	// default). Ignored on the plain Testbed path, which has no cache.
	Maintenance MaintenancePolicy
}

// QueryResult is the answer to a D/KB query plus its cost breakdown.
type QueryResult struct {
	// Vars names the answer columns (query variables in order).
	Vars []string
	// Rows are the answer tuples.
	Rows []rel.Tuple
	// Compile and Evaluate are the paper's t_c and t_e breakdowns.
	Compile core.CompileStats
	Eval    rtlib.Stats
	// Optimized reports whether magic sets were applied.
	Optimized bool
	// Strategy is the LFP strategy used.
	Strategy rtlib.Strategy
	// Trace is the recorded span tree (nil unless QueryOptions.Trace was
	// set). Render it with Trace.Format().
	Trace *obs.Trace
	// Cache is the plan-cache outcome when the query went through a
	// ConcurrentTestbed: "result" (answered from the memoized result),
	// "maintained" (answered from a memoized result that view
	// maintenance kept current through commits), "plan" (compiled
	// program reused, re-evaluated) or "miss" (full compile). Empty on
	// the plain Testbed path, which has no cache.
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
// evaluation-order nodes (0 for non-recursive queries and memoized
// cache hits, which did not evaluate).
func (r *QueryResult) Iterations() int64 {
	var n int64
	for _, ns := range r.Eval.Nodes {
		n += int64(ns.Iterations)
	}
	return n
}

// Query compiles and evaluates a Horn-clause query ("?- goal, goal.")
// against the workspace and stored D/KBs. opts may be nil for defaults
// (semi-naive, magic sets on).
func (tb *Testbed) Query(src string, opts *QueryOptions) (*QueryResult, error) {
	return tb.QueryContext(context.Background(), src, opts)
}

// QueryContext is Query under a context: cancellation (or deadline
// expiry) is checked between compilation and evaluation and at every
// LFP iteration boundary, aborting the query with an error wrapping
// ctx.Err(). Long recursive evaluations therefore stop within one
// iteration of the cancel.
func (tb *Testbed) QueryContext(ctx context.Context, src string, opts *QueryOptions) (*QueryResult, error) {
	q, err := dlog.ParseQuery(src)
	if err != nil {
		return nil, parseErr(err)
	}
	return tb.RunQueryContext(ctx, q, opts)
}

// RunQuery is Query for a pre-parsed query.
func (tb *Testbed) RunQuery(q dlog.Query, opts *QueryOptions) (*QueryResult, error) {
	return tb.RunQueryContext(context.Background(), q, opts)
}

// RunQueryContext is QueryContext for a pre-parsed query.
func (tb *Testbed) RunQueryContext(ctx context.Context, q dlog.Query, opts *QueryOptions) (*QueryResult, error) {
	if opts == nil {
		opts = &QueryOptions{}
	}
	qid := opts.QueryID
	if qid == 0 {
		qid = obs.NewQueryID()
	}
	var tr *obs.Trace
	if opts.Trace {
		tr = obs.NewTrace("query")
		tr.Root().SetInt("query_id", int64(qid))
	}
	compiled, err := tb.compile(tb.ws, tb.db, tb.st, q, opts, tr)
	if err != nil {
		return nil, err
	}
	res, _, err := tb.evaluate(ctx, tb.db, compiled, opts, tr, false)
	if err != nil {
		return nil, err
	}
	res.QueryID = qid
	return res, nil
}

// Compile runs only the Knowledge Manager pipeline, returning the
// evaluation program (used by benchmarks that measure t_c and t_e
// separately, and by the precompiled-query cache).
func (tb *Testbed) Compile(q dlog.Query, opts *QueryOptions) (*core.Compiled, error) {
	return tb.compile(tb.ws, tb.db, tb.st, q, opts, nil)
}

// compile runs the Knowledge Manager pipeline against an explicit
// workspace, database and rule source: the testbed's own, or — from a
// ConcurrentTestbed — a pinned snapshot's frozen workspace and
// resolver-bound views, so that rule extraction, dictionary reads and
// schema lookups all see one consistent engine state.
func (tb *Testbed) compile(ws *core.Workspace, d *db.DB, st *stored.Manager, q dlog.Query, opts *QueryOptions, tr *obs.Trace) (*core.Compiled, error) {
	if tb.closed {
		return nil, ErrClosed
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	optimize := !opts.NoOptimize
	if opts.Adaptive {
		optimize = tb.adaptiveOptimize(q)
	}
	cp := &core.Compiler{WS: ws, DB: d, Stored: st}
	compiled, err := cp.Compile(q, core.CompileOptions{Optimize: optimize, Trace: tr})
	if err != nil {
		return nil, semanticErr(err)
	}
	return compiled, nil
}

// Evaluate runs a compiled program. When opts.Trace is set the result
// carries an evaluation-only trace (compilation happened elsewhere —
// e.g. in Prepare).
func (tb *Testbed) Evaluate(compiled *core.Compiled, opts *QueryOptions) (*QueryResult, error) {
	return tb.EvaluateContext(context.Background(), compiled, opts)
}

// EvaluateContext is Evaluate under a context (see QueryContext).
func (tb *Testbed) EvaluateContext(ctx context.Context, compiled *core.Compiled, opts *QueryOptions) (*QueryResult, error) {
	var tr *obs.Trace
	if opts != nil && opts.Trace {
		tr = obs.NewTrace("query")
	}
	res, _, err := tb.evaluate(ctx, tb.db, compiled, opts, tr, false)
	return res, err
}

// evaluate runs a compiled program against an explicit database: the
// testbed's own, or a snapshot-bound view, so that the run-time library
// reads frozen base-table versions while its session-private temp tables
// still land in the live catalog. With keep set, the rtlib result
// retains the evaluation's derived relations (Result.Detach hands them
// to the materialized-view layer) and is returned alongside the query
// result.
func (tb *Testbed) evaluate(ctx context.Context, d *db.DB, compiled *core.Compiled, opts *QueryOptions, tr *obs.Trace, keep bool) (*QueryResult, *rtlib.Result, error) {
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
	res, err := rtlib.Evaluate(d, compiled.Program, rtlib.Options{
		Strategy:   strategy,
		KeepTables: keep,
		Parallel:   opts.Parallel,
		Pool:       tb.pool,
		Trace:      tr,
		Ctx:        ctx,
	})
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
		QueryID:   opts.QueryID,
	}, res, nil
}

// Update commits the workspace rules into the stored D/KB (paper §4.3),
// incrementally maintaining the compiled rule storage structures, and
// clears the workspace. It returns the update-time breakdown.
func (tb *Testbed) Update() (stored.UpdateStats, error) {
	if tb.closed {
		return stored.UpdateStats{}, ErrClosed
	}
	st, err := tb.st.Update(tb.ws.Rules())
	if err != nil {
		return st, err
	}
	tb.ws.Clear()
	tb.ruleGen++
	return st, nil
}

// adaptiveOptimize implements the paper's proposed dynamic optimization
// switch: apply magic sets only when the query looks selective — i.e.
// it carries at least one constant binding. (A full implementation
// would estimate D_rel/D_tot; the testbed uses the binding heuristic
// and exposes both manual modes for the crossover experiments.)
func (tb *Testbed) adaptiveOptimize(q dlog.Query) bool {
	for _, g := range q.Goals {
		for _, t := range g.Args {
			if !t.IsVar() {
				return true
			}
		}
	}
	return false
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
