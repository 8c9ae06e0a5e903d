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
//   - semi-naive evaluation (fixpoint.run): the differential approach —
//     each recursive rule is evaluated once per clique occurrence with
//     that occurrence reading the delta relation, and only genuinely
//     new tuples extend the result.
//
// There is one semi-naive round loop, fixpoint.run — temp table per
// round, EXCEPT chains, COUNT(*) termination — configured like the
// paper's LFP routine by the data structures its caller loads (rules,
// predicate→relation resolver). Evaluate runs it per clique, in
// evaluation order. What the loop keeps beside the paper's statements
// it sets up once per fixpoint, not per round: a predicate's delta
// tables are named up front, a round's pending delta by the round's
// parity, and each differential is bound to its statement and its
// relations once, a round re-binding only the position that reads the
// delta; base relations are named once per run. So a round allocates
// only what its statements do. One registry, tempTables, creates and
// tears down every temporary relation, and one statements set per run
// holds its statements, prepared once per database with tables and
// body constants as parameters, for every round to rebind (the paper's
// precompiled embedded SQL).
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
	"strconv"
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
	// Ctx is polled at LFP iteration boundaries (and between nodes),
	// and observed between tuples by every statement; cancellation
	// aborts the evaluation with an error wrapping ctx.Err(). Nil is
	// context.Background().
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
	// Rows are the tuples of the query predicate; nil from EvaluateBlock.
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
	return evaluate(d, prog, opts, nil)
}

// EvaluateBlock is Evaluate reading the answer as one row block
// (rel.AppendRows's layout) — the answer relation's records as stored,
// none decoded — which it returns beside a result whose Rows are nil.
func EvaluateBlock(d *db.DB, prog *codegen.Program, opts Options) (*Result, []byte, error) {
	var block []byte
	res, err := evaluate(d, prog, opts, &block)
	return res, block, err
}

// evaluate is Evaluate, reading the answer into *block instead of Rows
// when block is not nil.
func evaluate(d *db.DB, prog *codegen.Program, opts Options, block *[]byte) (*Result, error) {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	derived := 0
	for _, n := range prog.Nodes {
		derived += len(n.Preds)
	}
	ev := &evaluator{
		d:      d,
		prog:   prog,
		opts:   opts,
		tables: make(map[string]string, derived),
		base:   make(map[string]string, len(prog.BasePreds)),
		temps:  newTempTables(d, derived),
		stmts:  newStatements(d, prog.Schemas),
	}
	ev.fp.TableOf = ev.tableOf
	res, err := ev.run(runSeq.Add(1), block)
	ev.stmts.close()
	if err != nil {
		// Best-effort teardown on failure.
		ev.temps.dropAll()
		return nil, err
	}
	if err := ev.temps.dropAll(); err != nil {
		return nil, err
	}
	return res, nil
}

type evaluator struct {
	d      *db.DB
	prog   *codegen.Program
	opts   Options
	prefix string
	// tables maps derived predicates to their temp table names, and
	// base maps the program's base predicates to their extensional
	// tables; both are read-only once evaluation starts.
	tables, base map[string]string
	temps        *tempTables
	// stmts is the run's statements, shared by all its nodes.
	stmts *statements
	// fp is the fixpoint of the node evaluated, set up again by each.
	fp    fixpoint
	stats Stats
}

// tableOf resolves a predicate to its current relation name: the temp
// table for derived predicates, the extensional table otherwise.
func (ev *evaluator) tableOf(pred string) string {
	if t, ok := ev.tables[pred]; ok {
		return t
	}
	if t, ok := ev.base[pred]; ok {
		return t
	}
	return codegen.BaseTable(pred)
}

// run evaluates the program as run number seq, its answer read into
// *block when block is not nil, else into the result's Rows.
func (ev *evaluator) run(seq uint64, block *[]byte) (*Result, error) {
	start := time.Now()
	// Every relation is named before evaluation starts; each node
	// creates its own when it runs. Base relations and seeds are
	// verified up front for clean errors. Seed-only predicates (no
	// defining rules, e.g. the magic predicate of a non-recursive bound
	// subgoal) are materialized up front.
	seedOnly := ev.name(seq)
	for _, p := range ev.prog.BasePreds {
		if t := ev.base[p]; !ev.d.HasTable(t) {
			return nil, fmt.Errorf("rtlib: extensional relation %s (for predicate %s) does not exist", t, p)
		}
	}
	if err := seedTuplesValid(ev.prog); err != nil {
		return nil, err
	}
	seeds := make(map[string][]rel.Tuple)
	for _, s := range ev.prog.Seeds {
		seeds[s.Pred] = append(seeds[s.Pred], s.Tuple)
	}
	var preStats NodeStats
	for _, p := range seedOnly {
		if err := ev.createPredTable(p, seeds, &preStats); err != nil {
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
	answer, err := ev.stmts.relation(ev.prog.QueryPred, readAll)
	if err != nil {
		return nil, err
	}
	var rows []rel.Tuple
	n := 0
	if block != nil {
		*block, err = readBlock(ev.opts.Ctx, ev.d, answer, qt)
		n = rel.RowCount(*block)
	} else {
		rows, err = readRows(ev.opts.Ctx, ev.d, answer, qt)
		n = len(rows)
	}
	if err != nil {
		return nil, err
	}
	ev.stats.Elapsed = time.Since(start)
	evalSp.SetInt("rows", int64(n))
	evalSp.End()
	return &Result{Rows: rows, Schema: ev.prog.Schemas[ev.prog.QueryPred], Stats: ev.stats}, nil
}

// name names every relation of run seq, each name cut from one
// string: the prefix of the run's temp tables, each derived
// predicate's temp table — the nodes' predicates', then the seed-only
// predicates', which it returns — and each base predicate's extensional
// table.
func (ev *evaluator) name(seq uint64) (seedOnly []string) {
	prog := ev.prog
	for _, n := range prog.Nodes {
		for _, p := range n.Preds {
			ev.tables[p] = ""
		}
	}
	for _, s := range prog.Seeds {
		if _, named := ev.tables[s.Pred]; !named {
			ev.tables[s.Pred] = ""
			seedOnly = append(seedOnly, s.Pred)
		}
	}
	// The names are written into one buffer sized up front and handed
	// over as their string, not copied (strings.Builder).
	var pbuf, ibuf [64]byte
	prefix := append(strconv.AppendUint(append(pbuf[:0], "dkb"...), seq, 10), '_')
	size := len(prefix)
	for p := range ev.tables {
		size += len(prefix) + 1 + len(p)
	}
	for _, p := range prog.BasePreds {
		size += 4 + len(p)
	}
	var b strings.Builder
	b.Grow(size)
	b.Write(prefix)
	ends := make([]int, 0, len(ev.tables)+len(prog.BasePreds))
	temp := func(p string) {
		b.Write(prefix)
		b.WriteByte('p')
		b.Write(codegen.AppendIdent(ibuf[:0], p))
		ends = append(ends, b.Len())
	}
	for _, n := range prog.Nodes {
		for _, p := range n.Preds {
			temp(p)
		}
	}
	for _, p := range seedOnly {
		temp(p)
	}
	for _, p := range prog.BasePreds {
		b.Write(codegen.AppendBaseTable(ibuf[:0], p))
		ends = append(ends, b.Len())
	}
	all, start := b.String(), len(prefix)
	ev.prefix = all[:start]
	next := func() string {
		name := all[start:ends[0]]
		start, ends = ends[0], ends[1:]
		return name
	}
	for _, n := range prog.Nodes {
		for _, p := range n.Preds {
			ev.tables[p] = next()
		}
	}
	for _, p := range seedOnly {
		ev.tables[p] = next()
	}
	for _, p := range prog.BasePreds {
		ev.base[p] = next()
	}
	return seedOnly
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
	fp := &ev.fp
	fp.DB, fp.Temps, fp.Ctx, fp.Prefix = ev.d, ev.temps, ev.opts.Ctx, ev.prefix
	fp.Schemas, fp.Preds, fp.exit, fp.Rules = ev.prog.Schemas, node.Preds, node.ExitRules, node.RecursiveRules
	fp.Span, fp.Stats, fp.Stmts = sp, ns, ev.stmts
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
		err = fp.run()
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
	if err := ev.temps.create(name, ev.prog.Schemas[pred]); err != nil {
		return err
	}
	ns.TempTable += time.Since(t0)
	return ev.d.InsertTuples(name, seeds[pred])
}
