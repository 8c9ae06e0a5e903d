package rtlib

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// TempTables creates, registers and tears down the temporary relations
// of one evaluation run. Every temp table in the module
// is born here, so nothing a run creates can escape its teardown.
type TempTables struct {
	d    *db.DB
	live map[string]bool
}

// newTempTables returns an empty registry over d.
func newTempTables(d *db.DB) *TempTables {
	return &TempTables{d: d, live: make(map[string]bool)}
}

// Create creates and registers a temp table.
func (t *TempTables) Create(name string, schema *rel.Schema) error {
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
func (t *TempTables) drop(name string) error {
	delete(t.live, name)
	return t.d.DropTable(name)
}

// names lists the registered tables, sorted.
func (t *TempTables) names() []string {
	names := make([]string, 0, len(t.live))
	for n := range t.live {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropAll drops every table still registered (in name order, so page
// reuse does not depend on map iteration) and returns the first error.
func (t *TempTables) DropAll() error {
	var firstErr error
	for _, n := range t.names() {
		if err := t.drop(n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Fixpoint describes one semi-naive least-fixed-point computation over a
// clique of the evaluation order list: the paper's LFP routine (§3.3),
// configured by the data structures Evaluate loads. Run is the only
// semi-naive round loop in the module.
type Fixpoint struct {
	DB    *db.DB
	Temps *TempTables
	// Ctx, when non-nil, is polled at every round boundary and observed
	// between tuples by every rule statement.
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
	// table.
	TableOf func(pred string) string
	// Span, when non-nil, receives one "iteration N" span per round.
	Span *obs.Span
	// Stats, when non-nil, accumulates the run's rounds and time split.
	Stats *NodeStats
	// Stmts holds the run's statements; a caller running several
	// fixpoints shares one among them.
	Stmts *Statements

	// exit rules compute the first delta of a clique: evaluated into
	// the accumulators, whose contents then are the delta.
	exit []codegen.RuleSQL
	// cur and next map predicates to their current and pending delta
	// tables.
	cur, next map[string]string
}

// differential is one execution of a rule statement: the rule prepared
// in one form and the relation bound to each FROM position — for a
// round's differentials, one of them a delta.
type differential struct {
	rule   *codegen.RuleSQL
	stmt   *db.Stmt
	tables []string
}

// job binds r, prepared in the given form, to the relations TableOf
// resolves.
func (fp *Fixpoint) job(r *codegen.RuleSQL, form RuleForm) (differential, error) {
	stmt, err := fp.Stmts.Rule(r, form)
	if err != nil {
		return differential{}, err
	}
	return differential{r, stmt, Tables(r, fp.TableOf)}, nil
}

// Run iterates to the fixpoint: the paper's routine, statement for
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
func (fp *Fixpoint) Run() error {
	if fp.Stats == nil {
		fp.Stats = new(NodeStats)
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

// begin produces the first delta ("iteration 0"): the exit rules
// evaluated into the accumulators, whose contents (seeds included) are
// copied into delta_0.
func (fp *Fixpoint) begin() error {
	zero := fp.Span.Start("iteration 0")
	defer zero.End()
	for i := range fp.exit {
		r := &fp.exit[i]
		if err := fp.insertAll(r, fp.TableOf(r.Head), zero); err != nil {
			return err
		}
	}
	fp.cur = make(map[string]string, len(fp.Preds))
	for _, p := range fp.Preds {
		name := fp.Prefix + "delta_" + sanitize(p)
		if err := fp.createTemp(name, p); err != nil {
			return err
		}
		t0 := time.Now()
		if err := fp.copyRows(p, name, fp.TableOf(p)); err != nil {
			return err
		}
		fp.Stats.TempTable += time.Since(t0)
		fp.cur[p] = name
		if zero != nil {
			zero.SetInt("delta("+p+")", int64(fp.DB.TableRows(name)))
		}
	}
	return nil
}

// round fires one round's differentials into fresh pending delta tables
// and reports whether every pending delta came out empty.
func (fp *Fixpoint) round() (done bool, err error) {
	ns := fp.Stats
	ns.Iterations++
	var it *obs.Span
	if fp.Span != nil {
		it = fp.Span.Start(fmt.Sprintf("iteration %d", ns.Iterations))
		defer it.End()
	}
	// One differential per rule and FROM position with a current delta,
	// that position reading the delta.
	var jobs []differential
	heads := make(map[string]bool, len(fp.Preds))
	for i := range fp.Rules {
		r := &fp.Rules[i]
		for occ := range r.From {
			d, ok := fp.cur[r.From[occ].Pred]
			if !ok {
				continue
			}
			j, err := fp.job(r, RuleInsertNew)
			if err != nil {
				return false, err
			}
			j.tables[occ] = d
			jobs = append(jobs, j)
			heads[r.Head] = true
		}
	}
	fp.next = make(map[string]string, len(fp.Preds))
	for _, p := range fp.Preds {
		if !heads[p] {
			continue
		}
		name := fmt.Sprintf("%sndelta%d_%s", fp.Prefix, ns.Iterations, sanitize(p))
		if err := fp.createTemp(name, p); err != nil {
			return false, err
		}
		fp.next[p] = name
	}
	for _, j := range jobs {
		head := j.rule.Head
		if err := fp.insertRule(j, fp.next[head], fp.TableOf(head), it); err != nil {
			return false, err
		}
	}
	// Termination: every pending delta empty.
	done = true
	tc := it.Start("termcheck")
	defer tc.End()
	for _, p := range fp.Preds {
		t0 := time.Now()
		n, err := fp.pending(p)
		if err != nil {
			return false, err
		}
		ns.TermCheck += time.Since(t0)
		if n > 0 {
			done = false
		}
		if it != nil {
			it.SetInt("delta("+p+")", n)
			it.SetInt("acc("+p+")", int64(fp.DB.TableRows(fp.TableOf(p))))
		}
	}
	return done, nil
}

// pending sizes pred's pending delta with a COUNT(*).
func (fp *Fixpoint) pending(pred string) (int64, error) {
	t, ok := fp.next[pred]
	if !ok {
		return 0, nil
	}
	stmt, err := fp.Stmts.Relation(pred, CountAll)
	if err != nil {
		return 0, err
	}
	return stmt.QueryCount(evalCtx(fp.Ctx), nil, nil, t)
}

// insertRule executes one rule statement under a "rule <head>" span:
// j is prepared as RuleInsertNew when acc is given and as RuleInsert
// when it is "", so target gains only tuples neither it nor acc holds.
func (fp *Fixpoint) insertRule(j differential, target, acc string, parent *obs.Span) error {
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
	if err := j.stmt.Exec(evalCtx(fp.Ctx), sp, j.rule.Values, tables...); err != nil {
		return fmt.Errorf("rtlib: rule %q: %w", j.rule.Source(), err)
	}
	sp.End()
	fp.Stats.Eval += time.Since(t0)
	return nil
}

// insertAll evaluates r over TableOf into target: an exit rule into its
// head's relation, or any rule in a naive round.
func (fp *Fixpoint) insertAll(r *codegen.RuleSQL, target string, parent *obs.Span) error {
	j, err := fp.job(r, RuleInsert)
	if err != nil {
		return err
	}
	return fp.insertRule(j, target, "", parent)
}

// copyRows appends from's rows to into, both relations of pred.
func (fp *Fixpoint) copyRows(pred, into, from string) error {
	stmt, err := fp.Stmts.Relation(pred, CopyInto)
	if err != nil {
		return err
	}
	return stmt.Exec(evalCtx(fp.Ctx), nil, nil, into, from)
}

// createTemp creates a temp table on the run's registry, timed.
func (fp *Fixpoint) createTemp(name, pred string) error {
	t0 := time.Now()
	err := fp.Temps.Create(name, fp.Schemas[pred])
	fp.Stats.TempTable += time.Since(t0)
	return err
}

// retire drops pred's current delta table, if it has one.
func (fp *Fixpoint) retire(pred string) error {
	if t, ok := fp.cur[pred]; ok {
		return fp.Temps.drop(t)
	}
	return nil
}

// advance promotes each non-empty pending delta into its accumulator and
// makes the pending deltas current; an empty one is dropped instead.
func (fp *Fixpoint) advance() error {
	for _, p := range fp.Preds {
		t0 := time.Now()
		if t, ok := fp.next[p]; ok {
			if fp.DB.TableRows(t) == 0 {
				if err := fp.Temps.drop(t); err != nil {
					return err
				}
				delete(fp.next, p)
			} else if err := fp.copyRows(p, fp.TableOf(p), t); err != nil {
				return err
			}
		}
		if err := fp.retire(p); err != nil {
			return err
		}
		fp.Stats.TempTable += time.Since(t0)
	}
	fp.cur = fp.next
	return nil
}

// finish drops the delta tables once the fixpoint is reached.
func (fp *Fixpoint) finish() error {
	for _, p := range fp.Preds {
		t0 := time.Now()
		if t, ok := fp.next[p]; ok {
			if err := fp.Temps.drop(t); err != nil {
				return err
			}
		}
		if err := fp.retire(p); err != nil {
			return err
		}
		fp.Stats.TempTable += time.Since(t0)
	}
	return nil
}

// checkCtx polls a run's context (nil = never canceled): the node- and
// round-boundary cancellation point.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rtlib: evaluation canceled: %w", err)
	}
	return nil
}

// evalCtx is the context rule statements observe between tuples:
// the run's, or Background when it has none.
func evalCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// sanitize maps predicate names injectively onto SQL identifier bodies:
// the uniform "p" prefix keeps reserved predicates (leading '_') legal
// and collision-free against user predicates, and codegen.Ident keeps
// names that differ only in case apart under SQL's case folding.
func sanitize(pred string) string {
	return "p" + codegen.Ident(pred)
}
