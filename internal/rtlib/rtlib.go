// Package rtlib is the testbed's Run Time Library (paper §3.3): the
// bottom-up least-fixed-point machinery that executes the evaluation
// program produced by the code generator against the DBMS through its
// SQL interface.
//
// Two LFP strategies are implemented, as in the paper:
//
//   - naive evaluation (evalCliqueNaive): each iteration recomputes f(R)
//     from scratch into a fresh table and terminates when no new tuple
//     appeared;
//   - semi-naive evaluation (Fixpoint.Run): the differential approach —
//     each recursive rule is evaluated once per clique occurrence with
//     that occurrence reading the delta relation, and only genuinely
//     new tuples extend the result.
//
// There is one semi-naive round loop, Fixpoint.Run — temp table per
// round, EXCEPT chains, COUNT(*) termination — configured like the
// paper's LFP routine by the data structures its caller loads (rules,
// predicate→relation resolver). Evaluate runs it per clique, in
// evaluation order. One registry, TempTables, creates and tears down every temporary
// relation, and one Statements per run holds its statements, prepared
// once per database with tables and body constants as parameters, for
// every round to rebind (the paper's precompiled embedded SQL).
//
// Exactly as the paper laments, every path runs over plain SQL:
// temp tables are created and dropped per iteration, termination checks
// are set differences, and accumulated relations are copied — the
// library instruments those costs (Stats) because they are the subject
// of the paper's Tests 5–7.
package rtlib

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// Strategy selects the LFP evaluation algorithm.
type Strategy int

// Available strategies.
const (
	SemiNaive Strategy = iota
	Naive
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Naive {
		return "naive"
	}
	return "semi-naive"
}

// Options configure an evaluation run.
type Options struct {
	Strategy Strategy
	// Trace, when non-nil, records an "eval" span tree: one span per
	// evaluation-order node, per LFP iteration (delta cardinalities,
	// accumulator sizes, set-difference cost) and per generated SQL
	// statement's operator tree. Nil disables all recording at the cost
	// of a nil check.
	Trace *obs.Trace
	// Ctx, when non-nil, is polled at LFP iteration boundaries (and
	// between nodes); cancellation aborts the evaluation with an error
	// wrapping ctx.Err().
	Ctx context.Context
}

// NodeStats records the cost of evaluating one evaluation-order node.
type NodeStats struct {
	Preds      []string
	Recursive  bool
	Iterations int
	// Elapsed is the total wall-clock time in the node.
	Elapsed time.Duration
	// TempTable is time creating/dropping/copying temporary tables.
	TempTable time.Duration
	// Eval is time evaluating rule bodies (INSERT INTO ... SELECT).
	Eval time.Duration
	// TermCheck is time spent deciding termination (set differences /
	// counts).
	TermCheck time.Duration
	// Tuples is the final size of the node's derived relations.
	Tuples int
}

// Stats aggregates an evaluation run.
type Stats struct {
	Nodes []NodeStats
	// Totals across nodes.
	TempTable time.Duration
	Eval      time.Duration
	TermCheck time.Duration
	Elapsed   time.Duration
}

// Result is a completed evaluation.
type Result struct {
	// Rows are the tuples of the query predicate.
	Rows []rel.Tuple
	// Schema describes the rows.
	Schema *rel.Schema
	Stats  Stats
}

// runSeq distinguishes concurrent evaluations' temp table names within
// one process (the shell, the benches and the server's sessions reuse a
// single DB); evaluations start concurrently.
var runSeq atomic.Uint64

// Evaluate runs a compiled program against the database. Every
// temporary relation it creates is dropped before it returns.
func Evaluate(d *db.DB, prog *codegen.Program, opts Options) (*Result, error) {
	seq := runSeq.Add(1)
	ev := &evaluator{
		d:      d,
		prog:   prog,
		opts:   opts,
		prefix: fmt.Sprintf("dkb%d_", seq),
		tables: make(map[string]string),
		temps:  newTempTables(d),
		stmts:  newStatements(d, prog.Schemas),
	}
	res, err := ev.run()
	ev.stmts.Close()
	if err != nil {
		// Best-effort teardown on failure.
		ev.temps.DropAll()
		return nil, err
	}
	if err := ev.temps.DropAll(); err != nil {
		return nil, err
	}
	return res, nil
}

type evaluator struct {
	d      *db.DB
	prog   *codegen.Program
	opts   Options
	prefix string
	// tables maps derived predicates to their temp table names (base
	// predicates resolve to their extensional tables); read-only once
	// evaluation starts.
	tables map[string]string
	temps  *TempTables
	// stmts is the run's statements, shared by all its nodes.
	stmts *Statements
	stats Stats
}

// tableOf resolves a predicate to its current relation name: the temp
// table for derived predicates, the extensional table otherwise.
func (ev *evaluator) tableOf(pred string) string {
	if t, ok := ev.tables[pred]; ok {
		return t
	}
	return codegen.BaseTable(pred)
}

func (ev *evaluator) run() (*Result, error) {
	start := time.Now()
	// Verify base relations and seeds up front for clean errors.
	for _, p := range ev.prog.BasePreds {
		if !ev.d.HasTable(codegen.BaseTable(p)) {
			return nil, fmt.Errorf("rtlib: extensional relation %s (for predicate %s) does not exist",
				codegen.BaseTable(p), p)
		}
	}
	if err := seedTuplesValid(ev.prog); err != nil {
		return nil, err
	}
	seeds := make(map[string][]rel.Tuple)
	for _, s := range ev.prog.Seeds {
		seeds[s.Pred] = append(seeds[s.Pred], s.Tuple)
	}
	// Every derived relation is named before evaluation starts; each
	// node creates its own when it runs. Seed-only predicates (no defining
	// rules, e.g. the magic predicate of a non-recursive bound subgoal)
	// are materialized up front.
	for _, n := range ev.prog.Nodes {
		for _, p := range n.Preds {
			ev.tables[p] = ev.prefix + sanitize(p)
		}
	}
	var preStats NodeStats
	for _, s := range ev.prog.Seeds {
		if _, named := ev.tables[s.Pred]; named {
			continue
		}
		ev.tables[s.Pred] = ev.prefix + sanitize(s.Pred)
		if err := ev.createPredTable(s.Pred, seeds, &preStats); err != nil {
			return nil, err
		}
	}
	ev.stats.TempTable += preStats.TempTable

	evalSp := ev.opts.Trace.Start("eval")
	ev.stats.Nodes = make([]NodeStats, len(ev.prog.Nodes))
	for i := range ev.prog.Nodes {
		if err := checkCtx(ev.opts.Ctx); err != nil {
			return nil, err
		}
		if err := ev.evalNode(i, seeds, evalSp); err != nil {
			return nil, err
		}
	}
	for i := range ev.stats.Nodes {
		ns := &ev.stats.Nodes[i]
		ev.stats.TempTable += ns.TempTable
		ev.stats.Eval += ns.Eval
		ev.stats.TermCheck += ns.TermCheck
	}

	qt, ok := ev.tables[ev.prog.QueryPred]
	if !ok {
		return nil, fmt.Errorf("rtlib: query predicate %s was not evaluated", ev.prog.QueryPred)
	}
	answer, err := ev.stmts.Relation(ev.prog.QueryPred, ReadAll)
	if err != nil {
		return nil, err
	}
	rows, err := answer.Query(evalCtx(ev.opts.Ctx), nil, nil, qt)
	if err != nil {
		return nil, err
	}
	ev.stats.Elapsed = time.Since(start)
	evalSp.SetInt("rows", int64(len(rows.Tuples)))
	evalSp.End()
	return &Result{Rows: rows.Tuples, Schema: ev.prog.Schemas[ev.prog.QueryPred], Stats: ev.stats}, nil
}

// evalNode evaluates evaluation-order node i and records its stats at
// index i.
func (ev *evaluator) evalNode(i int, seeds map[string][]rel.Tuple, evalSp *obs.Span) error {
	node := &ev.prog.Nodes[i]
	ns := &ev.stats.Nodes[i]
	ns.Preds = node.Preds
	ns.Recursive = node.Recursive
	var sp *obs.Span
	if evalSp != nil {
		sp = evalSp.Start("node " + strings.Join(node.Preds, ","))
		if node.Recursive {
			sp.SetString("kind", "recursive")
		}
	}
	nodeStart := time.Now()
	for _, p := range node.Preds {
		if err := ev.createPredTable(p, seeds, ns); err != nil {
			return err
		}
	}
	fp := &Fixpoint{
		DB: ev.d, Temps: ev.temps, Ctx: ev.opts.Ctx, Prefix: ev.prefix,
		Schemas: ev.prog.Schemas, Preds: node.Preds,
		exit: node.ExitRules, Rules: node.RecursiveRules, TableOf: ev.tableOf,
		Span: sp, Stats: ns, Stmts: ev.stmts,
	}
	var err error
	switch {
	case !node.Recursive:
		// Union of the node's rules, deduplicated.
		for i := range node.ExitRules {
			r := &node.ExitRules[i]
			if err = fp.insertAll(r, fp.TableOf(r.Head), sp); err != nil {
				break
			}
		}
		ns.Iterations = 1
	case ev.opts.Strategy == Naive:
		err = evalCliqueNaive(fp, seeds)
	default:
		err = fp.Run()
	}
	if err != nil {
		return err
	}
	ns.Elapsed = time.Since(nodeStart)
	for _, p := range node.Preds {
		ns.Tuples += ev.d.TableRows(ev.tableOf(p))
	}
	sp.SetInt("iterations", int64(ns.Iterations))
	sp.SetInt("tuples", int64(ns.Tuples))
	sp.End()
	return nil
}

// createPredTable creates a derived predicate's temp table, inserting
// any seeds.
func (ev *evaluator) createPredTable(pred string, seeds map[string][]rel.Tuple, ns *NodeStats) error {
	name := ev.tables[pred]
	t0 := time.Now()
	if err := ev.temps.Create(name, ev.prog.Schemas[pred]); err != nil {
		return err
	}
	ns.TempTable += time.Since(t0)
	return ev.d.InsertTuples(name, seeds[pred])
}
