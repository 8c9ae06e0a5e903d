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
// predicate→relation resolver, promotion target, source of the first
// delta). Evaluate runs it per clique, in evaluation order or, under
// Options.Parallel with a pool, as a dependency wavefront of independent
// cliques; internal/matview runs it to absorb a commit into a
// maintained answer. One registry, TempTables, creates and tears down
// every temporary relation, and one Statements per run prepares its
// rule statements once, tables as parameters, for every round to rebind
// (the paper's precompiled embedded SQL).
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
	"sync"
	"sync/atomic"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
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
	// KeepTables, when set, skips the final cleanup so callers can
	// inspect derived relations; Cleanup must then be called manually.
	KeepTables bool
	// Parallel, with a Pool, evaluates independent evaluation-order nodes
	// as a dependency wavefront (runWavefront) on the pool. Every clique
	// still runs Fixpoint.Run, so the statements issued and the answer
	// are the sequential loop's.
	Parallel bool
	// Pool, when non-nil and Parallel is set, bounds the evaluation's
	// concurrency: the testbed's task pool, shared by every evaluation
	// on it. Without a pool, Parallel work runs inline on the calling
	// goroutine.
	Pool *sched.Pool
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

	ev *evaluator
}

// Cleanup drops any temp tables kept alive by Options.KeepTables.
func (r *Result) Cleanup() error {
	if r.ev == nil {
		return nil
	}
	err := r.ev.temps.DropAll()
	r.ev = nil
	return err
}

// Detach transfers ownership of the evaluation's derived relations to
// the caller: the predicate→temp-table map and the list of tables to
// drop eventually (the materialized-view layer wraps them and maintains
// them in place). After Detach, Cleanup is a no-op; both return nil
// maps unless the evaluation ran with Options.KeepTables. The
// evaluation is complete by the time a Result exists, so no lock is
// needed.
func (r *Result) Detach() (tables map[string]string, created []string) {
	if r.ev == nil {
		return nil, nil
	}
	ev := r.ev
	r.ev = nil
	return ev.tables, ev.temps.names()
}

// runSeq distinguishes concurrent evaluations' temp table names within
// one process (the shell, the benches and the server's sessions reuse a
// single DB). Incremented atomically: evaluations start concurrently.
var runSeq uint64

// Evaluate runs a compiled program against the database.
func Evaluate(d *db.DB, prog *codegen.Program, opts Options) (*Result, error) {
	seq := atomic.AddUint64(&runSeq, 1)
	ev := &evaluator{
		d:      d,
		prog:   prog,
		opts:   opts,
		prefix: fmt.Sprintf("dkb%d_", seq),
		tables: make(map[string]string),
		temps:  NewTempTables(d),
	}
	res, err := ev.run()
	if err != nil {
		// Best-effort teardown on failure.
		ev.temps.DropAll()
		return nil, err
	}
	if !opts.KeepTables {
		if err := ev.temps.DropAll(); err != nil {
			return nil, err
		}
	} else {
		res.ev = ev
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
	stats  Stats
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
	// Every derived relation is named before evaluation starts, so the
	// wavefront's concurrent nodes only ever read the map; each node
	// creates its own when it runs. Seed-only predicates (no defining
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
	if ev.opts.Parallel && ev.opts.Pool != nil && len(ev.prog.Nodes) > 1 {
		if err := ev.runWavefront(seeds, evalSp); err != nil {
			return nil, err
		}
	} else {
		for i := range ev.prog.Nodes {
			if err := checkCtx(ev.opts.Ctx); err != nil {
				return nil, err
			}
			if err := ev.evalNode(i, seeds, evalSp, -1); err != nil {
				return nil, err
			}
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
	answer, err := ev.d.Prepare(roleSQL[ReadAll].text, ev.prog.Schemas[ev.prog.QueryPred])
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
// index i. slot is the pool slot running it (-1 when sequential or
// inline), recorded on the node's span as its worker track.
func (ev *evaluator) evalNode(i int, seeds map[string][]rel.Tuple, evalSp *obs.Span, slot int) error {
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
		if slot >= 0 {
			sp.SetInt("sched.worker", int64(slot))
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
		exit: node.ExitRules, Rules: node.RecursiveRules,
		TableOf: ev.tableOf, Into: ev.tableOf,
		Span: sp, Stats: ns,
	}
	var err error
	switch {
	case !node.Recursive:
		// Union of the node's rules, deduplicated.
		for i := range node.ExitRules {
			r := &node.ExitRules[i]
			if err = fp.insertAll(r, fp.Into(r.Head), sp); err != nil {
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

// runWavefront evaluates the evaluation-order list as a dependency
// wavefront on the testbed's pool: a node is forked as soon as every node
// it reads has finished, so independent cliques — separate recursions
// with no path between them, or a query over several disjoint rule
// families — evaluate concurrently. Program.Nodes is topologically
// ordered (dependencies first), so at least one node is always ready
// and the forked set grows monotonically toward completion.
func (ev *evaluator) runWavefront(seeds map[string][]rel.Tuple, evalSp *obs.Span) error {
	n := len(ev.prog.Nodes)
	dependents := make([][]int, n)
	remaining := make([]int, n)
	for i := range ev.prog.Nodes {
		deps := ev.prog.Nodes[i].Deps
		remaining[i] = len(deps)
		for _, j := range deps {
			dependents[j] = append(dependents[j], i)
		}
	}
	var mu sync.Mutex // guards remaining and firstErr
	var firstErr error
	g := ev.opts.Pool.Group()
	var launch func(i int)
	launch = func(i int) {
		g.Go(func(slot int) {
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				return
			}
			err := checkCtx(ev.opts.Ctx)
			if err == nil {
				err = ev.evalNode(i, seeds, evalSp, slot)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for _, j := range dependents[i] {
				remaining[j]--
				if remaining[j] == 0 {
					launch(j)
				}
			}
		})
	}
	mu.Lock()
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			launch(i)
		}
	}
	mu.Unlock()
	g.Wait()
	return firstErr
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
