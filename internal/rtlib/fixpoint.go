package rtlib

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// tempTables creates, registers and tears down the temporary relations
// of one evaluation run. Every temp table in the module
// is born here, so nothing a run creates can escape its teardown.
type tempTables struct {
	d    *db.DB
	live map[string]bool
}

// newTempTables returns an empty registry over d, with room for n
// tables.
func newTempTables(d *db.DB, n int) *tempTables {
	return &tempTables{d: d, live: make(map[string]bool, n)}
}

// create creates and registers a temp table.
func (t *tempTables) create(name string, schema *rel.Schema) error {
	if schema == nil {
		return fmt.Errorf("rtlib: no schema for temp table %s", name)
	}
	if err := t.d.CreateTempTable(name, schema); err != nil {
		return err
	}
	t.live[name] = true
	return nil
}

// drop drops one table and forgets it.
func (t *tempTables) drop(name string) error {
	delete(t.live, name)
	return t.d.DropTable(name)
}

// names lists the registered tables, sorted.
func (t *tempTables) names() []string {
	names := make([]string, 0, len(t.live))
	for n := range t.live {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// dropAll drops every table still registered (in name order, so page
// reuse does not depend on map iteration) and returns the first error.
func (t *tempTables) dropAll() error {
	var firstErr error
	for _, n := range t.names() {
		if err := t.drop(n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fixpoint describes one semi-naive least-fixed-point computation over a
// clique of the evaluation order list: the paper's LFP routine (§3.3),
// configured by the data structures Evaluate loads. run is the only
// semi-naive round loop in the module.
type fixpoint struct {
	DB    *db.DB
	Temps *tempTables
	// Ctx is polled at every round boundary and observed between
	// tuples by every rule statement.
	Ctx context.Context
	// Prefix starts the name of every delta table the run creates.
	Prefix string
	// Schemas holds the schema of each predicate in Preds.
	Schemas map[string]*rel.Schema
	// Preds are the predicates whose relations grow: each gets a delta
	// relation per round, and the run ends when all of them are empty.
	Preds []string
	// Rules are differentiated: each round fires a rule once per FROM
	// position whose predicate has a current delta, that position
	// reading the delta and the others TableOf.
	Rules []codegen.RuleSQL
	// TableOf resolves a predicate to its relation: a derived
	// predicate's accumulator — which its new tuples are deduplicated
	// against and promoted into — or a base predicate's extensional
	// table. It resolves each predicate alike for the whole run.
	TableOf func(pred string) string
	// Span, when non-nil, receives one "iteration N" span per round.
	Span *obs.Span
	// Stats accumulates the run's rounds and time split.
	Stats *NodeStats
	// Stmts holds the run's statements, which every fixpoint of the
	// run shares.
	Stmts *statements

	// exit rules compute the first delta of a clique: evaluated into
	// the accumulators, whose contents then are the delta.
	exit []codegen.RuleSQL

	// The bookkeeping of run, set up once per fixpoint by bind and
	// reused by every round: deltas holds each predicate's, by position
	// in Preds, and diffs the differentials of Rules, bound to their
	// statements and relations.
	deltas []delta
	diffs  []differential
}

// delta is one predicate's part of a fixpoint: the names of its delta
// tables, which of them exist, and the relation and statements its
// deltas are counted and promoted with.
type delta struct {
	// first names the delta begin copies the accumulator into; pending
	// names a round's pending delta, by round parity. Only the current
	// delta and the pending one exist together, and they are of
	// consecutive rounds, so two names alternate.
	first   string
	pending [2]string
	// cur and next are the current and the pending delta table, "" when
	// the predicate has none.
	cur, next string
	// acc is TableOf(pred).
	acc string
	// heads is set while binding a round when a differential that fires
	// writes the predicate.
	heads bool
	// count is the predicate's COUNT(*), copy its copyInto.
	count, copy *db.Stmt
}

// differential is one execution of a rule statement: the rule prepared
// in one form and the relation bound to each FROM position — for a
// round's differentials, one of them a delta.
type differential struct {
	rule *codegen.RuleSQL
	stmt *db.Stmt
	// tables holds the relation at each FROM position, with room for
	// the target and the accumulator insertRule appends.
	tables []string
	// occ is the FROM position reading the delta of deltas[from];
	// head indexes deltas by the rule's head. A round fires the
	// differential when deltas[from] has a current delta.
	occ, from, head int
	fires           bool
}

// job binds r, prepared in the given form, to the relations TableOf
// resolves, listed in tables, which has room for them and for the two
// relations insertRule appends.
func (fp *fixpoint) job(r *codegen.RuleSQL, form ruleForm, tables []string) (differential, error) {
	stmt, err := fp.Stmts.rule(r, form)
	if err != nil {
		return differential{}, err
	}
	tables = tables[:0]
	for _, f := range r.From {
		tables = append(tables, fp.TableOf(f.Pred))
	}
	return differential{rule: r, stmt: stmt, tables: tables}, nil
}

// run iterates to the fixpoint: the paper's routine, statement for
// statement what Tests 5–7 measure. The delta is a temp table per
// predicate and round, new tuples are found by EXCEPT chains inside
// each rule's INSERT, and termination is a COUNT(*) per predicate.
//
// A predicate has a delta table only while it has delta tuples: a round
// creates a pending table for each predicate heading one of its
// differentials, and an empty pending delta is dropped instead of being
// promoted and fired. While every predicate of a clique keeps deriving
// — always, for the single-predicate cliques of Tests 5–7 — these are
// the paper routine's statements one for one; where a predicate runs
// dry early (a mutual recursion, or a commit's few tuples spread over a
// whole program) the statements over its empty delta are not issued.
//
// What the statements do not need is paid once per fixpoint, not per
// round: each predicate's delta tables are named up front — begin's,
// and two a round's pending delta alternates between by round parity —
// and each differential is bound to its statement and its relations
// once, a round re-binding only the position that reads the delta.
func (fp *fixpoint) run() error {
	if err := fp.bind(); err != nil {
		return err
	}
	if err := fp.begin(); err != nil {
		return err
	}
	for {
		if err := checkCtx(fp.Ctx); err != nil {
			return err
		}
		done, err := fp.round()
		if err != nil {
			return err
		}
		if done {
			return fp.finish()
		}
		if err := fp.advance(); err != nil {
			return err
		}
	}
}

// bind sets up the fixpoint's bookkeeping: every predicate's delta
// names, relation and statements, and one differential per rule and
// FROM position reading a predicate of Preds. The delta names are cut
// from one string, and the differentials' relation lists from one
// slice; the arrays of an earlier fixpoint on fp are reused.
func (fp *fixpoint) bind() error {
	fp.deltas = append(fp.deltas[:0], make([]delta, len(fp.Preds))...)
	fp.diffs = fp.diffs[:0]
	pos := make(map[string]int, len(fp.Preds))
	// The names are written into one buffer sized up front and handed
	// over as their string, not copied (strings.Builder).
	roles := [...]string{"delta_p", "ndelta0_p", "ndelta1_p"}
	var b strings.Builder
	size := 0
	for _, p := range fp.Preds {
		for _, role := range roles {
			size += len(fp.Prefix) + len(role) + len(p)
		}
	}
	b.Grow(size)
	var ibuf [64]byte
	var ebuf [24]int
	ends := ebuf[:0]
	for i, p := range fp.Preds {
		pos[p] = i
		var err error
		dl := &fp.deltas[i]
		if dl.count, err = fp.Stmts.relation(p, countAll); err != nil {
			return err
		}
		if dl.copy, err = fp.Stmts.relation(p, copyInto); err != nil {
			return err
		}
		dl.acc = fp.TableOf(p)
		for _, role := range roles {
			b.WriteString(fp.Prefix)
			b.WriteString(role)
			b.Write(codegen.AppendIdent(ibuf[:0], p))
			ends = append(ends, b.Len())
		}
	}
	names, start := b.String(), 0
	for i := range fp.deltas {
		dl := &fp.deltas[i]
		dl.first = names[start:ends[3*i]]
		dl.pending = [2]string{names[ends[3*i]:ends[3*i+1]], names[ends[3*i+1]:ends[3*i+2]]}
		start = ends[3*i+2]
	}
	n := 0
	for i := range fp.Rules {
		r := &fp.Rules[i]
		for _, f := range r.From {
			if _, ok := pos[f.Pred]; ok {
				n += len(r.From) + 2
			}
		}
	}
	tables := make([]string, n)
	for i := range fp.Rules {
		r := &fp.Rules[i]
		head, ok := pos[r.Head]
		if !ok {
			return fmt.Errorf("rtlib: rule %q: head %s is not a predicate of the fixpoint", r.Source(), r.Head)
		}
		for occ, f := range r.From {
			from, ok := pos[f.Pred]
			if !ok {
				continue
			}
			j, err := fp.job(r, ruleInsertNew, tables[:0:len(r.From)+2])
			if err != nil {
				return err
			}
			tables = tables[len(r.From)+2:]
			j.occ, j.from, j.head = occ, from, head
			fp.diffs = append(fp.diffs, j)
		}
	}
	return nil
}

// begin produces the first delta ("iteration 0"): the exit rules
// evaluated into the accumulators, whose contents (seeds included) are
// copied into each predicate's first delta table.
func (fp *fixpoint) begin() error {
	zero := fp.Span.Start("iteration 0")
	defer zero.End()
	for i := range fp.exit {
		r := &fp.exit[i]
		if err := fp.insertAll(r, fp.TableOf(r.Head), zero); err != nil {
			return err
		}
	}
	for i, p := range fp.Preds {
		dl := &fp.deltas[i]
		if err := fp.createTemp(dl.first, p); err != nil {
			return err
		}
		t0 := time.Now()
		if err := dl.copy.Exec(fp.Ctx, fp.DB, nil, nil, dl.first, dl.acc); err != nil {
			return err
		}
		fp.Stats.TempTable += time.Since(t0)
		dl.cur = dl.first
		if zero != nil {
			zero.SetInt("delta("+p+")", int64(fp.DB.TableRows(dl.first)))
		}
	}
	return nil
}

// round fires one round's differentials into fresh pending delta tables
// and reports whether every pending delta came out empty.
func (fp *fixpoint) round() (done bool, err error) {
	ns := fp.Stats
	ns.Iterations++
	var it *obs.Span
	if fp.Span != nil {
		it = fp.Span.Start(fmt.Sprintf("iteration %d", ns.Iterations))
		defer it.End()
	}
	// A differential fires when the predicate at its delta position has
	// a current delta, that position reading it.
	for i := range fp.diffs {
		j := &fp.diffs[i]
		d := fp.deltas[j.from].cur
		if j.fires = d != ""; j.fires {
			j.tables[j.occ] = d
			fp.deltas[j.head].heads = true
		}
	}
	for i, p := range fp.Preds {
		dl := &fp.deltas[i]
		if !dl.heads {
			continue
		}
		dl.heads = false
		name := dl.pending[ns.Iterations%2]
		if err := fp.createTemp(name, p); err != nil {
			return false, err
		}
		dl.next = name
	}
	for i := range fp.diffs {
		j := &fp.diffs[i]
		if !j.fires {
			continue
		}
		head := &fp.deltas[j.head]
		if err := fp.insertRule(j, head.next, head.acc, it); err != nil {
			return false, err
		}
	}
	// Termination: every pending delta empty.
	done = true
	tc := it.Start("termcheck")
	defer tc.End()
	for i, p := range fp.Preds {
		dl := &fp.deltas[i]
		t0 := time.Now()
		var n int64
		if dl.next != "" {
			if n, err = dl.count.QueryCount(fp.Ctx, fp.DB, nil, nil, dl.next); err != nil {
				return false, err
			}
		}
		ns.TermCheck += time.Since(t0)
		if n > 0 {
			done = false
		}
		if it != nil {
			it.SetInt("delta("+p+")", n)
			it.SetInt("acc("+p+")", int64(fp.DB.TableRows(dl.acc)))
		}
	}
	return done, nil
}

// insertRule executes one rule statement under a "rule <head>" span:
// j is prepared as ruleInsertNew when acc is given and as ruleInsert
// when it is "", so target gains only tuples neither it nor acc holds.
func (fp *fixpoint) insertRule(j *differential, target, acc string, parent *obs.Span) error {
	var sp *obs.Span
	if parent != nil {
		sp = parent.Start("rule " + j.rule.Head)
		sp.SetString("src", j.rule.Source())
	}
	tables := append(j.tables, target)
	if acc != "" {
		tables = append(tables, acc)
	}
	t0 := time.Now()
	if err := j.stmt.Exec(fp.Ctx, fp.DB, sp, j.rule.Values, tables...); err != nil {
		return fmt.Errorf("rtlib: rule %q: %w", j.rule.Source(), err)
	}
	sp.End()
	fp.Stats.Eval += time.Since(t0)
	return nil
}

// insertAll evaluates r over TableOf into target: an exit rule into its
// head's relation, or a non-recursive node's rule.
func (fp *fixpoint) insertAll(r *codegen.RuleSQL, target string, parent *obs.Span) error {
	var tables [maxStackTables]string
	j, err := fp.job(r, ruleInsert, tables[:])
	if err != nil {
		return err
	}
	return fp.insertRule(&j, target, "", parent)
}

// maxStackTables is how many relations insertAll lists on its stack:
// the FROM positions of a rule, its target and its accumulator.
const maxStackTables = 8

// createTemp creates a temp table on the run's registry, timed.
func (fp *fixpoint) createTemp(name, pred string) error {
	t0 := time.Now()
	err := fp.Temps.create(name, fp.Schemas[pred])
	fp.Stats.TempTable += time.Since(t0)
	return err
}

// advance promotes each non-empty pending delta into its accumulator and
// makes the pending deltas current; an empty one is dropped instead.
func (fp *fixpoint) advance() error {
	for i := range fp.deltas {
		dl := &fp.deltas[i]
		t0 := time.Now()
		if dl.next != "" {
			if fp.DB.TableRows(dl.next) == 0 {
				if err := fp.Temps.drop(dl.next); err != nil {
					return err
				}
				dl.next = ""
			} else if err := dl.copy.Exec(fp.Ctx, fp.DB, nil, nil, dl.acc, dl.next); err != nil {
				return err
			}
		}
		if dl.cur != "" {
			if err := fp.Temps.drop(dl.cur); err != nil {
				return err
			}
		}
		dl.cur, dl.next = dl.next, ""
		fp.Stats.TempTable += time.Since(t0)
	}
	return nil
}

// finish drops the delta tables once the fixpoint is reached.
func (fp *fixpoint) finish() error {
	for i := range fp.deltas {
		dl := &fp.deltas[i]
		t0 := time.Now()
		for _, t := range [2]string{dl.next, dl.cur} {
			if t == "" {
				continue
			}
			if err := fp.Temps.drop(t); err != nil {
				return err
			}
		}
		dl.cur, dl.next = "", ""
		fp.Stats.TempTable += time.Since(t0)
	}
	return nil
}

// checkCtx polls a run's context: the node- and round-boundary
// cancellation point.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rtlib: evaluation canceled: %w", err)
	}
	return nil
}

// sanitize maps predicate names injectively onto SQL identifier bodies:
// the uniform "p" prefix keeps reserved predicates (leading '_') legal
// and collision-free against user predicates, and codegen.Ident keeps
// names that differ only in case apart under SQL's case folding.
func sanitize(pred string) string {
	return "p" + codegen.Ident(pred)
}
