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
	// ruleGen counts the rule-base changes ConcurrentTestbed commits; its
	// plan cache keeps a compiled program while the generation stands
	// still.
	ruleGen uint64
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

// --- Write path: each write planned once, then applied ---

// write is one planned mutation of the testbed, made from a single parse
// while no other writer runs: what it will change, read before anything
// changes, and the function that changes it. A Testbed applies it as
// planned; ConcurrentTestbed.commit first shadows its tables and clones
// the workspace, and afterwards publishes the next snapshot.
type write struct {
	// tables are the non-temp tables apply mutates; shadowing skips the
	// ones that do not exist yet.
	tables []string
	// rules is set when the rule generation moves: rules are added or
	// committed, or a fact relation is created (which can change the
	// mixed rules/facts normalization of compiled programs).
	rules bool
	// matched is the number of rows a retract's pattern matched: the
	// rows its apply deletes.
	matched int
	// apply performs the write; nil when the write mutates nothing.
	apply func() error
}

// run applies a planned write, if planning succeeded and the write
// mutates anything.
func run(w write, err error) error {
	if err != nil || w.apply == nil {
		return err
	}
	return w.apply()
}

// Load parses a Horn-clause program and enters it into the workspace
// D/KB. Facts are materialized immediately into extensional relations,
// the first fact of a predicate creating its relation (and no index —
// see CreateFactIndex); rules stay in the workspace until Update commits
// them to the stored D/KB. Queries are not allowed in Load input.
func (tb *Testbed) Load(src string) error { return run(tb.planLoad(src)) }

// planLoad plans a Load: each fact's tuple is built once, and the
// clauses apply in program order.
func (tb *Testbed) planLoad(src string) (write, error) {
	if tb.closed {
		return write{}, ErrClosed
	}
	prog, err := dlog.ParseProgram(src)
	if err != nil {
		return write{}, parseErr(err)
	}
	if len(prog.Queries) > 0 {
		return write{}, fmt.Errorf("%w: Load input contains a query; use Query", ErrSemantic)
	}
	if len(prog.Clauses) == 0 {
		return write{}, nil
	}
	var w write
	facts := make([]rel.Tuple, 0, len(prog.Clauses))
	seen := make(map[string]bool) // fact tables already in the footprint
	created := false
	for _, cl := range prog.Clauses {
		if !cl.IsFact() {
			w.rules = true
			continue
		}
		tu := make(rel.Tuple, len(cl.Head.Args))
		for i, a := range cl.Head.Args {
			tu[i] = a.Val
		}
		facts = append(facts, tu)
		table := BaseTableName(cl.Head.Pred)
		if seen[table] {
			continue
		}
		seen[table] = true
		if tb.db.HasTable(table) {
			w.tables = append(w.tables, table)
		} else {
			created = true
		}
	}
	if created {
		w.rules = true
		w.tables = append(w.tables, stored.NewFactFootprint...)
	}
	w.apply = func() error {
		f := facts
		for _, cl := range prog.Clauses {
			if !cl.IsFact() {
				if err := tb.ws.AddClause(cl); err != nil {
					return semanticErr(err)
				}
				continue
			}
			if err := tb.st.InsertFacts(cl.Head.Pred, f[:1]); err != nil {
				return err
			}
			f = f[1:]
		}
		return nil
	}
	return w, nil
}

// MustLoad is Load panicking on error, for examples and tests.
func (tb *Testbed) MustLoad(src string) {
	if err := tb.Load(src); err != nil {
		panic(err)
	}
}

// AssertTuples bulk-loads facts for one predicate (the workload
// generators and the loader use this), creating its relation on first
// use. Only the plain Testbed has it, so it has no plan to publish.
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

// Retract deletes stored facts matching the pattern atom: constant
// arguments must match exactly, variable arguments match anything
// (retract(parent(john, X)) removes every parent fact about john). It
// returns the number of facts removed; retracting from a predicate with
// no fact relation removes nothing. Rules are not retractable — they
// live in the workspace until committed, and the stored rule base is
// append-only as in the paper.
func (tb *Testbed) Retract(pattern dlog.Atom) (int, error) {
	w, err := tb.planRetract(pattern)
	return retracted(w, run(w, err))
}

// planRetract plans a Retract: the rows the pattern matches are counted
// once, and the count is what the DELETE that removes them reports. A
// pattern that matches nothing mutates nothing.
func (tb *Testbed) planRetract(pattern dlog.Atom) (write, error) {
	if tb.closed {
		return write{}, ErrClosed
	}
	table := BaseTableName(pattern.Pred)
	t := tb.db.Catalog().Table(table)
	if t == nil {
		return write{}, nil
	}
	if t.Schema.Len() != pattern.Arity() {
		return write{}, fmt.Errorf("%w: retract %s: predicate has arity %d, pattern has %d",
			ErrSemantic, pattern.String(), t.Schema.Len(), pattern.Arity())
	}
	var where []string
	for i, a := range pattern.Args {
		if !a.IsVar() {
			where = append(where, fmt.Sprintf("c%d = %s", i, a.Val.SQL()))
		}
	}
	filter := ""
	if len(where) > 0 {
		filter = " WHERE " + strings.Join(where, " AND ")
	}
	matched, err := tb.db.QueryCount("SELECT COUNT(*) FROM " + table + filter)
	if err != nil || matched == 0 {
		return write{}, err
	}
	return write{
		tables:  []string{table},
		matched: int(matched),
		apply:   func() error { return tb.db.Exec("DELETE FROM " + table + filter) },
	}, nil
}

// retracted reports how many facts an applied retract removed: the rows
// its plan matched.
func retracted(w write, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return w.matched, nil
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
	var st stored.UpdateStats
	err := run(tb.planUpdate(&st))
	return st, err
}

// planUpdate plans an Update, whose breakdown apply leaves in st. The
// stored manager declares the tables it writes; the rule generation
// always moves.
func (tb *Testbed) planUpdate(st *stored.UpdateStats) (write, error) {
	if tb.closed {
		return write{}, ErrClosed
	}
	return write{tables: stored.UpdateFootprint, rules: true, apply: func() error {
		var err error
		if *st, err = tb.st.Update(tb.ws.Rules()); err == nil {
			tb.ws.Clear()
		}
		return err
	}}, nil
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
	// Rows are the answer tuples.
	Rows []rel.Tuple
	// Compile and Evaluate are the paper's t_c and t_e breakdowns.
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
	// ConcurrentTestbed: "result" (answered from the memoized result),
	// "plan" (compiled program reused, re-evaluated — as after a commit
	// that moves the memo's inputs) or "miss" (full compile). Empty on the plain Testbed path, which has
	// no cache.
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
	res, err := tb.evaluate(context.TODO(), tb.db, compiled, opts, tr)
	if err != nil {
		return nil, err
	}
	res.QueryID = qid
	return res, nil
}

// Compile runs only the Knowledge Manager pipeline, returning the
// evaluation program (used by benchmarks that measure t_c and t_e
// separately, and by the shell's .explain).
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
	cp := &core.Compiler{WS: ws, DB: d, Stored: st}
	compiled, err := cp.Compile(q, core.CompileOptions{Optimize: !opts.NoOptimize, Trace: tr})
	if err != nil {
		return nil, semanticErr(err)
	}
	return compiled, nil
}

// Evaluate runs a compiled program. When opts.Trace is set the result
// carries an evaluation-only trace (compilation happened elsewhere —
// e.g. in Compile).
func (tb *Testbed) Evaluate(compiled *core.Compiled, opts *QueryOptions) (*QueryResult, error) {
	var tr *obs.Trace
	if opts != nil && opts.Trace {
		tr = obs.NewTrace("query")
	}
	return tb.evaluate(context.TODO(), tb.db, compiled, opts, tr)
}

// evaluate runs a compiled program against an explicit database: the
// testbed's own, or a snapshot-bound view, so that the run-time library
// reads frozen base-table versions while its session-private temp tables
// still land in the live catalog, and are dropped when it ends.
func (tb *Testbed) evaluate(ctx context.Context, d *db.DB, compiled *core.Compiled, opts *QueryOptions, tr *obs.Trace) (*QueryResult, error) {
	if tb.closed {
		return nil, ErrClosed
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dkbms: query canceled: %w", err)
		}
	}
	strategy := rtlib.SemiNaive
	if opts.Naive {
		strategy = rtlib.Naive
	}
	res, err := rtlib.Evaluate(d, compiled.Program, rtlib.Options{
		Strategy: strategy,
		Trace:    tr,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, err
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
	}, nil
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
