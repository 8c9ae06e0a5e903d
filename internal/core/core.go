// Package core is the testbed's Knowledge Manager (paper §3.2): the
// Workspace D/KB Manager plus the compilation pipeline that turns a
// Horn-clause query into an executable evaluation program:
//
//	parse → gather relevant rules (workspace + stored D/KB) →
//	[magic-sets optimization] → PCG/clique analysis → evaluation order →
//	semantic checks (definedness, type inference) → code generation.
//
// The compiled Program is executed by internal/rtlib against the DBMS.
// Per-phase timings are recorded in CompileStats because the paper's
// Tests 1–3 measure exactly those components.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/dlog"
	"dkbms/internal/magic"
	"dkbms/internal/obs"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
	"dkbms/internal/typeinf"
)

// Workspace is the memory-resident D/KB the user edits before committing
// it to the stored D/KB (paper §3.1).
type Workspace struct {
	// rules are the workspace rules in entry order.
	rules []dlog.Clause
	// facts are ground facts awaiting Commit, grouped by predicate.
	facts map[string][]dlog.Clause
	// factTypes are the inferred column types of fact predicates.
	factTypes map[string][]rel.Type
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		facts:     make(map[string][]dlog.Clause),
		factTypes: make(map[string][]rel.Type),
	}
}

// AddClause inserts a parsed clause (rule or fact) into the workspace.
// Reserved predicate names (the compiled-query head and magic-set
// auxiliaries) are rejected.
func (w *Workspace) AddClause(c dlog.Clause) error {
	if err := checkUserPred(c.Head.Pred); err != nil {
		return err
	}
	for _, a := range c.Body {
		if err := checkUserPred(a.Pred); err != nil {
			return err
		}
	}
	if !c.RangeRestricted() {
		return fmt.Errorf("core: clause %q is not range-restricted", c.String())
	}
	if c.IsFact() {
		types := make([]rel.Type, c.Head.Arity())
		for i, t := range c.Head.Args {
			types[i] = t.Val.Kind
		}
		if have, ok := w.factTypes[c.Head.Pred]; ok {
			if len(have) != len(types) {
				return fmt.Errorf("core: fact %q has arity %d, earlier facts have %d", c.String(), len(types), len(have))
			}
			for i := range have {
				if have[i] != types[i] {
					return fmt.Errorf("core: fact %q column %d type differs from earlier facts", c.String(), i+1)
				}
			}
		} else {
			w.factTypes[c.Head.Pred] = types
		}
		w.facts[c.Head.Pred] = append(w.facts[c.Head.Pred], c)
		return nil
	}
	w.rules = append(w.rules, c)
	return nil
}

// AddSource parses and adds a program (clauses only; queries in the
// source are rejected — pose them via Compile).
func (w *Workspace) AddSource(src string) error {
	prog, err := dlog.ParseProgram(src)
	if err != nil {
		return err
	}
	if len(prog.Queries) > 0 {
		return fmt.Errorf("core: source contains a query; use Query instead")
	}
	for _, c := range prog.Clauses {
		if err := w.AddClause(c); err != nil {
			return err
		}
	}
	return nil
}

// Rules returns the workspace rules (callers must not mutate).
func (w *Workspace) Rules() []dlog.Clause { return w.rules }

// Facts returns workspace facts grouped by predicate.
func (w *Workspace) Facts() map[string][]dlog.Clause { return w.facts }

// FactTypes returns the inferred types of workspace fact predicates.
func (w *Workspace) FactTypes() map[string][]rel.Type { return w.factTypes }

// RulePreds returns the predicates defined by workspace rules, sorted.
func (w *Workspace) RulePreds() []string {
	set := make(map[string]bool)
	for _, c := range w.rules {
		set[c.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a workspace whose rule and fact containers are private
// copies of the receiver's. Clauses themselves are shared — they are
// immutable everywhere — so a clone is cheap. The snapshot commit path
// clones before mutating, leaving the original frozen inside published
// snapshots.
func (w *Workspace) Clone() *Workspace {
	c := &Workspace{
		rules:     append([]dlog.Clause(nil), w.rules...),
		facts:     make(map[string][]dlog.Clause, len(w.facts)),
		factTypes: make(map[string][]rel.Type, len(w.factTypes)),
	}
	for p, cs := range w.facts {
		c.facts[p] = append([]dlog.Clause(nil), cs...)
	}
	for p, ts := range w.factTypes {
		c.factTypes[p] = append([]rel.Type(nil), ts...)
	}
	return c
}

// Clear empties the workspace.
func (w *Workspace) Clear() {
	w.rules = nil
	w.facts = make(map[string][]dlog.Clause)
	w.factTypes = make(map[string][]rel.Type)
}

func checkUserPred(p string) error {
	if strings.HasPrefix(p, "_") {
		return fmt.Errorf("core: predicate %s: names starting with '_' are reserved", p)
	}
	if strings.HasPrefix(p, magic.MagicPrefix) && strings.Contains(p, magic.AdornedSep) {
		return fmt.Errorf("core: predicate %s collides with magic-set naming", p)
	}
	return nil
}

// RuleSource abstracts where additional (stored) rules come from during
// compilation. The stored D/KB manager implements it; a nil source
// compiles from the workspace alone.
type RuleSource interface {
	// ExtractRelevant returns every stored rule whose head is one of
	// the given predicates or is reachable from them, using the
	// compiled reachablepreds relation.
	ExtractRelevant(preds []string) ([]dlog.Clause, error)
	// BaseTypes returns the column types of the given extensional
	// predicates, consulting the extensional data dictionary. Unknown
	// predicates are simply absent from the result.
	BaseTypes(preds []string) (map[string][]rel.Type, error)
}

// CompileStats breaks down compilation time the way the paper's Test 3
// reports it.
type CompileStats struct {
	// Setup: query parsing and query-rule construction.
	Setup time.Duration
	// Extract: time to pull the relevant rules out of the stored D/KB.
	Extract time.Duration
	// ReadDict: time to read the intensional/extensional dictionaries
	// (base-relation types).
	ReadDict time.Duration
	// Rewrite: magic-sets optimization time.
	Rewrite time.Duration
	// EvalOrder: PCG construction, clique finding, topological sort.
	EvalOrder time.Duration
	// TypeCheck: semantic checks and type inference.
	TypeCheck time.Duration
	// CodeGen: evaluation-program generation (the paper additionally
	// measures cc+link of the emitted C, which has no analog here; see
	// EXPERIMENTS.md).
	CodeGen time.Duration
	// Total wall-clock compilation time.
	Total time.Duration
	// RelevantRules and RelevantPreds are the R_r and P_r parameters.
	RelevantRules int
	RelevantPreds int
}

// Compiled is a ready-to-run query program.
type Compiled struct {
	Program *codegen.Program
	Stats   CompileStats
	// Vars are the query's output variable names, in answer-column
	// order.
	Vars []string
	// Optimized reports whether magic-sets rewriting was applied.
	Optimized bool
}

// CompileOptions control compilation.
type CompileOptions struct {
	// Optimize applies generalized magic sets when the query carries
	// constant bindings.
	Optimize bool
	// Trace, when non-nil, receives a "compile" span whose children are
	// the per-phase timings of CompileStats (setup, extract, read-dict,
	// magic rewrite, eval-order, typecheck, codegen).
	Trace *obs.Trace
}

// emitCompileSpans renders already-measured CompileStats as a span tree
// — the compiler keeps its own timers (the paper's Test 3 reports
// them), so the trace mirrors them rather than double-timing.
func emitCompileSpans(tr *obs.Trace, stats CompileStats, optimized bool) {
	if tr == nil {
		return
	}
	sp := tr.Start("compile")
	sp.SetDuration(stats.Total)
	sp.SetInt("relevant_rules", int64(stats.RelevantRules))
	sp.SetInt("relevant_preds", int64(stats.RelevantPreds))
	if optimized {
		sp.SetString("magic", "applied")
	}
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"parse", stats.Setup},
		{"extract", stats.Extract},
		{"read-dict", stats.ReadDict},
		{"magic rewrite", stats.Rewrite},
		{"eval-order", stats.EvalOrder},
		{"semantic check", stats.TypeCheck},
		{"codegen", stats.CodeGen},
	}
	for _, ph := range phases {
		child := sp.Start(ph.name)
		child.SetDuration(ph.d)
	}
}

// Compiler compiles queries against a workspace, a database (for
// extensional schemas) and an optional stored rule source.
type Compiler struct {
	WS     *Workspace
	DB     *db.DB
	Stored RuleSource
}

// Compile turns a query into an evaluation program.
func (cp *Compiler) Compile(q dlog.Query, opts CompileOptions) (*Compiled, error) {
	stats := CompileStats{}
	total := time.Now()

	// --- Setup: build the query rule.
	t0 := time.Now()
	if len(q.Goals) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	queryRule := q.AsClause()
	vars := q.Vars()
	if len(vars) == 0 {
		return nil, fmt.Errorf("core: boolean (fully ground) queries are not supported; include at least one variable")
	}
	rules := append([]dlog.Clause(nil), cp.WS.Rules()...)
	rules = append(rules, queryRule)
	stats.Setup = time.Since(t0)

	// --- Extract relevant stored rules, iterating to a fixpoint
	// between workspace and stored D/KB as in the paper's §4.2 step 1.
	t0 = time.Now()
	if cp.Stored != nil {
		have := make(map[string]bool)
		for _, c := range rules {
			have[c.Head.Pred] = true
		}
		frontier := bodyPreds(rules)
		for len(frontier) > 0 {
			extracted, err := cp.Stored.ExtractRelevant(frontier)
			if err != nil {
				return nil, err
			}
			var added []dlog.Clause
			for _, c := range extracted {
				if !have[c.Head.Pred] {
					added = append(added, c)
				}
			}
			if len(added) == 0 {
				break
			}
			for _, c := range added {
				have[c.Head.Pred] = true
			}
			// Group added rules by head then append deterministically.
			rules = append(rules, added...)
			frontier = nil
			newPreds := bodyPreds(added)
			for _, p := range newPreds {
				if !have[p] {
					frontier = append(frontier, p)
				}
			}
		}
	}
	stats.Extract = time.Since(t0)

	// --- Scope the rules to those reachable from the query.
	g := pcg.Build(rules)
	reach := g.Reachable(dlog.QueryPred)
	var relevant []dlog.Clause
	for _, c := range rules {
		if reach[c.Head.Pred] {
			relevant = append(relevant, c)
		}
	}
	stats.RelevantRules = len(relevant) - 1 // excluding the query rule

	// --- Read dictionaries: types of all reachable base predicates.
	t0 = time.Now()
	baseTypes, err := cp.collectBaseTypes(g, reach)
	if err != nil {
		return nil, err
	}
	stats.ReadDict = time.Since(t0)

	// --- Normalize predicates defined by both rules and facts: move
	// the facts behind a bridge predicate (paper §1.1).
	relevant, g = normalizeMixed(relevant, g, baseTypes)

	// --- Optional magic-sets rewriting.
	queryPred := dlog.QueryPred
	var seeds []codegen.SeedFact
	seedOnly := make(map[string][]rel.Type)
	optimized := false
	t0 = time.Now()
	if opts.Optimize {
		res, err := magic.Rewrite(relevant, dlog.QueryPred, func(p string) bool { return g.IsDerived(p) })
		switch {
		case err == magic.ErrNoBindings:
			// Identity rewrite: fall through unoptimized.
		case err != nil:
			return nil, err
		default:
			relevant = res.Rules
			queryPred = res.QueryPred
			optimized = true
			for _, s := range res.Seeds {
				tu := make(rel.Tuple, len(s.Args))
				for i, t := range s.Args {
					tu[i] = t.Val
				}
				seeds = append(seeds, codegen.SeedFact{Pred: s.Pred, Tuple: tu})
			}
			g = pcg.Build(relevant)
			// A magic predicate may be defined only by its seed (no
			// magic rules, e.g. a non-recursive bound subgoal). Such
			// predicates act as base relations for type inference, and
			// the runtime materializes them from the seeds.
			for _, s := range seeds {
				if g.IsDerived(s.Pred) {
					continue
				}
				types := make([]rel.Type, len(s.Tuple))
				for i, v := range s.Tuple {
					types[i] = v.Kind
				}
				if have, ok := seedOnly[s.Pred]; ok {
					for i := range have {
						if i >= len(types) || have[i] != types[i] {
							return nil, fmt.Errorf("core: magic seeds for %s disagree on types", s.Pred)
						}
					}
				}
				seedOnly[s.Pred] = types
				baseTypes[s.Pred] = types
			}
		}
	}
	stats.Rewrite = time.Since(t0)

	// --- Cliques and evaluation order.
	t0 = time.Now()
	analysis, err := pcg.Analyze(g, queryPred)
	if err != nil {
		return nil, err
	}
	stats.EvalOrder = time.Since(t0)
	derivedCount := 0
	for p := range analysis.Reachable {
		if g.IsDerived(p) {
			derivedCount++
		}
	}
	stats.RelevantPreds = derivedCount

	// --- Semantic checks and type inference. Magic seeds hint the
	// types of seeded magic predicates whose rules alone are circular.
	t0 = time.Now()
	if err := typeinf.CheckDefined(g, analysis.Reachable, baseTypes); err != nil {
		return nil, err
	}
	hints := make(map[string][]rel.Type)
	for _, s := range seeds {
		types := make([]rel.Type, len(s.Tuple))
		for i, v := range s.Tuple {
			types[i] = v.Kind
		}
		hints[s.Pred] = types
	}
	derivedTypes, err := typeinf.InferHinted(analysis.Order, baseTypes, hints)
	if err != nil {
		return nil, err
	}
	stats.TypeCheck = time.Since(t0)

	// --- Code generation.
	t0 = time.Now()
	prog, err := codegen.Generate(analysis.Order, derivedTypes, analysis.BasePreds, queryPred)
	if err != nil {
		return nil, err
	}
	prog.Seeds = seeds
	// Seed-only magic predicates are materialized by the runtime, not
	// read from extensional tables: give them schemas and remove them
	// from the base list.
	if len(seedOnly) > 0 {
		var bases []string
		for _, p := range prog.BasePreds {
			if _, isSeed := seedOnly[p]; !isSeed {
				bases = append(bases, p)
			}
		}
		prog.BasePreds = bases
		for p, types := range seedOnly {
			cols := make([]rel.Column, len(types))
			for i, ty := range types {
				cols[i] = rel.Column{Name: fmt.Sprintf("c%d", i), Type: ty}
			}
			schema, err := rel.NewSchema(cols...)
			if err != nil {
				return nil, err
			}
			prog.Schemas[p] = schema
		}
	}
	stats.CodeGen = time.Since(t0)

	stats.Total = time.Since(total)
	emitCompileSpans(opts.Trace, stats, optimized)
	return &Compiled{Program: prog, Stats: stats, Vars: vars, Optimized: optimized}, nil
}

// collectBaseTypes resolves extensional predicate schemas: workspace
// fact types first, then the database catalog (and through it the
// stored D/KB's extensional dictionary).
func (cp *Compiler) collectBaseTypes(g *pcg.Graph, reach map[string]bool) (map[string][]rel.Type, error) {
	out := make(map[string][]rel.Type)
	var missing []string
	// Every reachable predicate is checked for extensional facts — even
	// derived ones, which normalizeMixed then splits into rule and fact
	// halves.
	for p := range reach {
		if t, ok := cp.WS.FactTypes()[p]; ok {
			out[p] = t
			continue
		}
		if cp.DB != nil {
			// Resolve through the DB (not the raw catalog): a snapshot-
			// bound view binds the lookup to its frozen table versions.
			if tb := cp.DB.Table(codegen.BaseTable(p)); tb != nil {
				types := make([]rel.Type, tb.Schema.Len())
				for i := 0; i < tb.Schema.Len(); i++ {
					types[i] = tb.Schema.Col(i).Type
				}
				out[p] = types
				continue
			}
		}
		missing = append(missing, p)
	}
	if cp.Stored != nil && len(missing) > 0 {
		// In name order, not reach's: the dictionary statement keeps its
		// last execution's plan, so the order of its executions decides
		// which of them re-bind it.
		sort.Strings(missing)
		extra, err := cp.Stored.BaseTypes(missing)
		if err != nil {
			return nil, err
		}
		for p, t := range extra {
			out[p] = t
		}
	}
	return out, nil
}

// normalizeMixed rewrites predicates that are both derived (rules) and
// extensional (facts): the facts stay in the predicate's extensional
// table, reached through a synthetic bridge rule
//
//	p(X0..Xn) :- _b_p(X0..Xn).
//
// so that every predicate is defined entirely by rules or entirely by
// facts, the form the rest of the pipeline assumes.
func normalizeMixed(relevant []dlog.Clause, g *pcg.Graph, baseTypes map[string][]rel.Type) ([]dlog.Clause, *pcg.Graph) {
	var mixed []string
	for p := range baseTypes {
		if g.IsDerived(p) {
			mixed = append(mixed, p)
		}
	}
	if len(mixed) == 0 {
		return relevant, g
	}
	sort.Strings(mixed)
	for _, p := range mixed {
		types := baseTypes[p]
		bridge := codegen.BridgePrefix + p
		args := make([]dlog.Term, len(types))
		for i := range args {
			args[i] = dlog.V(fmt.Sprintf("X%d", i))
		}
		relevant = append(relevant, dlog.Clause{
			Head: dlog.Atom{Pred: p, Args: args},
			Body: []dlog.Atom{{Pred: bridge, Args: args}},
		})
		baseTypes[bridge] = types
		delete(baseTypes, p)
	}
	return relevant, pcg.Build(relevant)
}

// bodyPreds returns the distinct predicates appearing in rule bodies,
// sorted.
func bodyPreds(rules []dlog.Clause) []string {
	set := make(map[string]bool)
	for _, c := range rules {
		for _, a := range c.Body {
			set[a.Pred] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
