package stored

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
	"dkbms/internal/typeinf"
)

// UpdateStats breaks down a stored-D/KB update the way the paper's
// Test 9 reports it.
type UpdateStats struct {
	// Extract is the time to pull the rules relevant to the workspace
	// rules out of the stored D/KB (t_uextract).
	Extract time.Duration
	// TC is the time to compute and write the incremental transitive
	// closure of the PCG (t_utc). Zero when compiled rule storage is
	// disabled.
	TC time.Duration
	// Store is the time to write the source form and dictionary rows
	// (t_ustore).
	Store time.Duration
	// Total wall-clock update time (t_u).
	Total time.Duration
	// NewRules is the number of workspace rules committed (R_w).
	NewRules int
	// TCEdges is the number of reachability edges written.
	TCEdges int
}

// UpdateFootprint lists the relations Update writes: the intensional
// dictionary, the rule source and its compiled closure. A copy-on-write
// commit shadows them first.
var UpdateFootprint = []string{TabRuleSource, TabReachablePreds, TabIDBRels, TabIDBCols}

// Update commits workspace rules into the stored D/KB (paper §4.3):
//
//  1. extract from the stored D/KB the rules relevant to the new ones,
//  2. build the PCG of the composite rule set and compute its
//     transitive closure,
//  3. type-check the new predicates against the dictionaries,
//  4. update idbrels/idbcols, reachablepreds (incrementally) and
//     rulesource.
//
// Only intensional structures are updated; facts flow through
// InsertFacts. As in the paper, no integrity checking beyond the type
// check is attempted.
func (m *Manager) Update(rules []dlog.Clause) (UpdateStats, error) {
	var st UpdateStats
	if len(rules) == 0 {
		return st, nil
	}
	total := time.Now()
	st.NewRules = len(rules)

	for _, c := range rules {
		if c.IsFact() {
			return st, fmt.Errorf("stored: Update takes rules only; fact %q belongs in the extensional database", c.String())
		}
	}

	// --- Step 1: composite rule set = new rules + relevant stored
	// rules, iterated to a fixpoint over body references.
	t0 := time.Now()
	composite := append([]dlog.Clause(nil), rules...)
	have := make(map[string]bool)
	heads := make(map[string]bool)
	for _, c := range rules {
		have[c.Head.Pred] = true
		heads[c.Head.Pred] = true
	}
	frontier := make(map[string]bool)
	for _, c := range rules {
		for _, a := range c.Body {
			frontier[a.Pred] = true
		}
	}
	// The heads themselves may already have stored rules that must be
	// part of the composite closure.
	for h := range heads {
		frontier[h] = true
	}
	for len(frontier) > 0 {
		var ask []string
		for p := range frontier {
			ask = append(ask, p)
		}
		sort.Strings(ask)
		extracted, err := m.ExtractRelevant(ask)
		if err != nil {
			return st, err
		}
		frontier = make(map[string]bool)
		seenRule := make(map[string]bool)
		for _, c := range composite {
			seenRule[c.String()] = true
		}
		for _, c := range extracted {
			if seenRule[c.String()] {
				continue
			}
			seenRule[c.String()] = true
			composite = append(composite, c)
			have[c.Head.Pred] = true
			for _, a := range c.Body {
				if !have[a.Pred] {
					frontier[a.Pred] = true
				}
			}
		}
		// Drop frontier preds with no stored rules (base predicates).
		for p := range frontier {
			if have[p] {
				delete(frontier, p)
			}
		}
		if len(extracted) == 0 {
			break
		}
	}
	st.Extract = time.Since(t0)

	// --- Step 2+3: PCG of the composite, closure, and type check.
	g := pcg.Build(composite)
	tc := g.TransitiveClosure()

	derivedTypes, err := m.typeCheckComposite(g, composite)
	if err != nil {
		return st, err
	}

	// --- Step 4: write dictionaries and rule storage.
	// 4a. idbrels/idbcols for newly-defined predicates.
	t0 = time.Now()
	var newPreds []string
	for h := range heads {
		newPreds = append(newPreds, h)
	}
	sort.Strings(newPreds)
	for _, p := range newPreds {
		types := derivedTypes[p]
		known, err := m.DerivedTypes([]string{p})
		if err != nil {
			return st, err
		}
		if existing, ok := known[p]; ok {
			if len(existing) != len(types) {
				return st, fmt.Errorf("stored: predicate %s stored with arity %d, update has %d", p, len(existing), len(types))
			}
			for i := range existing {
				if existing[i] != types[i] {
					return st, fmt.Errorf("stored: predicate %s column %d stored as %v, update infers %v",
						p, i+1, existing[i], types[i])
				}
			}
			continue
		}
		if err := m.d.Exec(fmt.Sprintf("INSERT INTO idbrels VALUES ('%s', %d)", sqlEscape(p), len(types))); err != nil {
			return st, err
		}
		for i, ty := range types {
			if err := m.d.Exec(fmt.Sprintf("INSERT INTO idbcols VALUES ('%s', %d, '%s')",
				sqlEscape(p), i, ty.String())); err != nil {
				return st, err
			}
		}
	}
	// 4b. rulesource rows for the new rules.
	for _, c := range rules {
		stmt := fmt.Sprintf("INSERT INTO rulesource VALUES ('%s', %d, '%s')",
			sqlEscape(c.Head.Pred), m.nextRuleID, sqlEscape(c.String()))
		m.nextRuleID++
		if err := m.d.Exec(stmt); err != nil {
			return st, err
		}
	}
	st.Store = time.Since(t0)

	// 4c. incremental reachablepreds maintenance.
	if !m.opts.NoCompiledRules {
		t0 = time.Now()
		if err := m.refreshReachability(heads, tc); err != nil {
			return st, err
		}
		st.TC = time.Since(t0)
	}

	st.TCEdges = 0
	for _, reach := range tc {
		st.TCEdges += len(reach)
	}
	st.Total = time.Since(total)
	return st, nil
}

// refreshReachability rewrites the reachablepreds rows affected by an
// update: the updated heads themselves, plus every stored predicate
// that could already reach one of them (found through the compiled
// closure — the "incremental" part: untouched regions of the rule base
// are never visited).
func (m *Manager) refreshReachability(heads map[string]bool, tc map[string]map[string]bool) error {
	// New reachability of each updated head, from the composite TC.
	headReach := make(map[string]map[string]bool)
	for h := range heads {
		headReach[h] = tc[h]
	}

	// Upstream predicates: frompred rows pointing at any updated head.
	upstream := make(map[string]bool)
	for h := range heads {
		rows, err := m.stmts.reachTo.Query(context.Background(), nil, []rel.Value{rel.NewString(h)})
		if err != nil {
			return err
		}
		for _, tu := range rows.Tuples {
			p := tu[0].Str
			if !heads[p] {
				upstream[p] = true
			}
		}
	}

	// Updated heads: replace their rows wholesale.
	var hs []string
	for h := range heads {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	for _, h := range hs {
		if err := m.d.Exec(fmt.Sprintf(
			"DELETE FROM reachablepreds WHERE frompredname = '%s'", sqlEscape(h))); err != nil {
			return err
		}
		if err := m.insertReach(h, headReach[h]); err != nil {
			return err
		}
	}

	// Upstream predicates: their old reachability remains valid and
	// gains the new reachability of every updated head they reach.
	var ups []string
	for p := range upstream {
		ups = append(ups, p)
	}
	sort.Strings(ups)
	for _, p := range ups {
		rows, err := m.stmts.reachFrom.Query(context.Background(), nil, []rel.Value{rel.NewString(p)})
		if err != nil {
			return err
		}
		old := make(map[string]bool, len(rows.Tuples))
		for _, tu := range rows.Tuples {
			old[tu[0].Str] = true
		}
		add := make(map[string]bool)
		for h := range heads {
			if !old[h] {
				continue
			}
			for q := range headReach[h] {
				if !old[q] && q != p {
					add[q] = true
				}
			}
			// A head on a new cycle through p could even reach p; keep
			// the self edge out (reachablepreds stores proper closure
			// including self only via cycles, mirroring pcg semantics).
			if headReach[h][p] {
				add[p] = true
			}
		}
		if err := m.insertReach(p, add); err != nil {
			return err
		}
	}
	return nil
}

// insertReach writes the closure edges from one predicate as one bulk
// insert.
func (m *Manager) insertReach(from string, to map[string]bool) error {
	ts := make([]string, 0, len(to))
	for q := range to {
		ts = append(ts, q)
	}
	sort.Strings(ts)
	rows := make([]rel.Tuple, len(ts))
	for i, q := range ts {
		rows[i] = rel.Tuple{rel.NewString(from), rel.NewString(q)}
	}
	return m.d.InsertTuples(TabReachablePreds, rows)
}

// typeCheckComposite runs the semantic checks of §4.3 step 4 over the
// composite rule set, returning inferred types for its derived
// predicates.
func (m *Manager) typeCheckComposite(g *pcg.Graph, composite []dlog.Clause) (map[string][]rel.Type, error) {
	var roots []string
	seen := make(map[string]bool)
	for _, c := range composite {
		if !seen[c.Head.Pred] {
			seen[c.Head.Pred] = true
			roots = append(roots, c.Head.Pred)
		}
	}
	sort.Strings(roots)
	analysis, err := pcg.Analyze(g, roots...)
	if err != nil {
		return nil, err
	}
	baseTypes, err := m.BaseTypes(analysis.BasePreds)
	if err != nil {
		return nil, err
	}
	for _, p := range analysis.BasePreds {
		if _, ok := baseTypes[p]; !ok {
			return nil, fmt.Errorf("stored: predicate %s is neither defined by rules nor present in the extensional database", p)
		}
	}
	return typeinf.Infer(analysis.Order, baseTypes)
}
