// Package core is the testbed's Knowledge Manager (paper §3.2): the
// Workspace D/KB Manager plus the compilation pipeline that turns a
// Horn-clause query into an executable evaluation program:
//
//	parse → gather relevant rules (workspace + stored D/KB) →
//	[factoring or magic-sets optimization] → PCG/clique analysis →
//	evaluation order →
//	semantic checks (definedness, type inference) → code generation.
//
// The compiled Program is executed by internal/rtlib against the DBMS.
// Per-phase timings are recorded in CompileStats because the paper's
// Tests 1–3 measure exactly those components.
package core

import (
	"fmt"
	"slices"
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
// it to the stored D/KB (paper §3.1). It holds rules only: a fact goes
// straight to its extensional table in the stored D/KB when it is
// loaded.
type Workspace struct {
	// rules are the workspace rules in entry order.
	rules []dlog.Clause
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// AddClause inserts a parsed rule into the workspace. Facts are
// refused, as are reserved predicate names (the compiled-query head and
// magic-set auxiliaries).
func (w *Workspace) AddClause(c dlog.Clause) error {
	if c.IsFact() {
		return fmt.Errorf("core: fact %q: the workspace holds rules only", c.String())
	}
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
	w.rules = append(w.rules, c)
	return nil
}

// Rules returns the workspace rules (callers must not mutate).
func (w *Workspace) Rules() []dlog.Clause { return w.rules }

// Clone returns a workspace whose rule slice is a private copy of the
// receiver's. Clauses themselves are shared — they are immutable
// everywhere — so a clone is cheap. The snapshot commit path clones
// before mutating, leaving the original frozen inside published
// snapshots.
func (w *Workspace) Clone() *Workspace {
	return &Workspace{rules: append([]dlog.Clause(nil), w.rules...)}
}

// Clear empties the workspace.
func (w *Workspace) Clear() { w.rules = nil }

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
	// Rewrite: optimization time (factoring or magic sets).
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
	// Optimized reports whether magic sets or factoring was applied.
	Optimized bool
	// Rewrite names the rewrite applied (magic.GeneralizedMagic or
	// magic.Factoring), empty when none was.
	Rewrite string
}

// CompileOptions control compilation.
type CompileOptions struct {
	// Optimize applies factoring when the program is a bound linear
	// recursion it handles (magic.Factor), and otherwise generalized
	// magic sets when the query carries constant bindings.
	Optimize bool
	// ForceMagic skips factoring, so that Optimize always applies
	// generalized magic sets: the paper's experiments measure that
	// rewrite.
	ForceMagic bool
	// Trace, when non-nil, receives a "compile" span whose children are
	// the per-phase timings of CompileStats (setup, extract, read-dict,
	// magic rewrite, eval-order, typecheck, codegen).
	Trace *obs.Trace
}

// emitCompileSpans renders already-measured CompileStats as a span tree
// — the compiler keeps its own timers (the paper's Test 3 reports
// them), so the trace mirrors them rather than double-timing.
func emitCompileSpans(tr *obs.Trace, stats CompileStats, rewrite string) {
	if tr == nil {
		return
	}
	sp := tr.Start("compile")
	sp.SetDuration(stats.Total)
	sp.SetInt("relevant_rules", int64(stats.RelevantRules))
	sp.SetInt("relevant_preds", int64(stats.RelevantPreds))
	if rewrite != "" {
		sp.SetString("rewrite", rewrite)
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
	ws := cp.WS.Rules()
	rules := make([]dlog.Clause, len(ws)+1)
	copy(rules, ws)
	rules[len(ws)] = queryRule
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
			// The rules of predicates not yet held, kept in place:
			// extracted is this call's own.
			added := extracted[:0]
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
			rules = append(rules, added...)
			frontier = bodyPreds(added)
			k := 0
			for _, p := range frontier {
				if !have[p] {
					frontier[k] = p
					k++
				}
			}
			frontier = frontier[:k]
		}
	}
	stats.Extract = time.Since(t0)

	// --- Scope the rules to those reachable from the query.
	g := pcg.Build(rules)
	reach := g.Reachable(dlog.QueryPred)
	relevant, n := rules, 0
	for _, c := range rules {
		if g.Contains(reach, c.Head.Pred) {
			n++
		}
	}
	if n < len(rules) {
		relevant = make([]dlog.Clause, 0, n)
		for _, c := range rules {
			if g.Contains(reach, c.Head.Pred) {
				relevant = append(relevant, c)
			}
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

	// --- Optional rewriting: factoring where it applies, generalized
	// magic sets otherwise.
	queryPred := dlog.QueryPred
	var seeds []codegen.SeedFact
	seedOnly := make(map[string][]rel.Type)
	rewrite := ""
	t0 = time.Now()
	if opts.Optimize {
		var res *magic.Result
		var err error
		if !opts.ForceMagic {
			res = magic.Factor(relevant, dlog.QueryPred, g.IsDerived)
		}
		if res == nil {
			res, err = magic.Rewrite(relevant, dlog.QueryPred, g.IsDerived)
		}
		switch {
		case err == magic.ErrNoBindings:
			// Identity rewrite: fall through unoptimized.
		case err != nil:
			return nil, err
		default:
			relevant = res.Rules
			queryPred = res.QueryPred
			rewrite = res.Rewrite
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
	stats.RelevantPreds = analysis.Derived

	// --- Semantic checks and type inference. Magic seeds hint the
	// types of seeded magic predicates whose rules alone are circular.
	t0 = time.Now()
	if err := typeinf.CheckDefined(analysis, baseTypes); err != nil {
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
			schema, err := codegen.Schema(types)
			if err != nil {
				return nil, err
			}
			prog.Schemas[p] = schema
		}
	}
	stats.CodeGen = time.Since(t0)

	stats.Total = time.Since(total)
	emitCompileSpans(opts.Trace, stats, rewrite)
	return &Compiled{Program: prog, Stats: stats, Vars: vars, Optimized: rewrite != "", Rewrite: rewrite}, nil
}

// collectBaseTypes resolves extensional predicate schemas: the database
// catalog first, then the stored D/KB's extensional dictionary.
func (cp *Compiler) collectBaseTypes(g *pcg.Graph, reach []bool) (map[string][]rel.Type, error) {
	out := make(map[string][]rel.Type)
	missing := make([]string, 0, len(reach))
	// Every reachable predicate is checked for extensional facts — even
	// derived ones, which normalizeMixed then splits into rule and fact
	// halves. A table is looked up by a name built here, not kept.
	var name [64]byte
	for id, in := range reach {
		if !in {
			continue
		}
		p := g.Name(id)
		if cp.DB != nil {
			// Resolve through the DB (not the raw catalog): a snapshot-
			// bound view binds the lookup to its frozen table versions.
			if tb := cp.DB.TableBytes(codegen.AppendBaseTable(name[:0], p)); tb != nil {
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
		// In name order (ids are): the dictionary statement keeps its
		// last execution's plan, so the order of its executions decides
		// which of them re-bind it.
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
	n := 0
	for _, c := range rules {
		n += len(c.Body)
	}
	out := make([]string, 0, n)
	for _, c := range rules {
		for _, a := range c.Body {
			out = append(out, a.Pred)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
