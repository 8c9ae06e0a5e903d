// Package codegen is the testbed's Code Generator (paper §3.2.6). The
// paper's version emits a C program segment that "loads certain data
// structures in the object program with query-specific information" —
// the predicate/clique nodes of the evaluation order list, their schema
// information, and the SQL query evaluating the body of each rule. This
// package emits exactly those data structures as a Program value, which
// the run-time library (internal/rtlib) interprets: the Go equivalent of
// compiling the fragment and linking it against the run-time library.
//
// Every predicate relation — extensional fact tables and the temporary
// tables holding derived predicates — uses canonical column names c0,
// c1, ... so rule bodies compile to SQL without consulting per-table
// column naming.
package codegen

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dkbms/internal/dlog"
	"dkbms/internal/pcg"
	"dkbms/internal/rel"
)

// BridgePrefix marks the synthetic base predicates the knowledge
// manager introduces when normalizing a predicate defined by both rules
// and facts (paper §1.1: "we can assume without loss of generality that
// a predicate is defined entirely by rules or entirely by facts"). The
// bridge predicate _b_p aliases p's extensional table.
const BridgePrefix = "_b_"

// BaseTable returns the DBMS table holding a base predicate's facts.
// Every predicate's extensional relation is named edb_<pred> (<pred>
// as Ident spells it) with columns c0..cn-1; bridge predicates alias
// their original predicate's table.
func BaseTable(pred string) string {
	return "edb_" + Ident(strings.TrimPrefix(pred, BridgePrefix))
}

// Ident spells a predicate name as the body of an SQL identifier. SQL
// text folds identifiers to lower case and admits only [a-z0-9_], while
// predicate names are case-sensitive, so the spelling must not lean on
// case. A name already within [a-z0-9_] is its own spelling. Any other
// gets a leading '0' — which no predicate name starts with, so the two
// families cannot meet — and then, byte by byte: [a-z0-9] as it is,
// '_' doubled, an upper-case letter as '_' and its lower case, any
// other byte as '_' and three decimal digits. parentOf is
// 0parent_of; the spelling is injective.
func Ident(pred string) string {
	plain := true
	for i := 0; i < len(pred); i++ {
		if c := pred[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			plain = false
			break
		}
	}
	if plain {
		return pred
	}
	b := make([]byte, 0, len(pred)+8)
	b = append(b, '0')
	for i := 0; i < len(pred); i++ {
		switch c := pred[i]; {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			b = append(b, c)
		case c == '_':
			b = append(b, '_', '_')
		case 'A' <= c && c <= 'Z':
			b = append(b, '_', c-'A'+'a')
		default:
			b = append(b, '_', '0'+c/100, '0'+c/10%10, '0'+c%10)
		}
	}
	return string(b)
}

// FromEntry is one relation in a compiled rule's FROM list. Pred is the
// predicate name; the run-time library maps it to a concrete table
// (extensional table, derived temp table, or delta table during
// semi-naive differentials). Alias is the fixed alias used by the
// compiled select list and WHERE text.
type FromEntry struct {
	Pred  string
	Alias string
}

// RuleSQL is the compiled form of one rule: the constituents of
//
//	SELECT DISTINCT <SelectList> FROM <From...> [WHERE <Where>]
//
// with table names left symbolic so the runtime can substitute delta
// tables per differential, and each body constant a value parameter, so
// that rules differing only in their constants — the rules magic sets
// rewrite a query's bindings into — are one statement.
type RuleSQL struct {
	// Head is the defined predicate.
	Head string
	// src is the original clause's source text, for a span, an error or
	// EXPLAIN: a slice of one string Generate renders per program, so a
	// cached program keeps its rules' text rather than their clauses.
	src string
	// SelectList is the projection computing the head tuple.
	SelectList string
	// From lists the body relations in order.
	From []FromEntry
	// Where is the conjunction of constant and variable-equality
	// conditions ("" when the body imposes none), the k-th constant
	// written as ?k.
	Where string
	// Values[k-1] is the body constant ?k stands for.
	Values []rel.Value
	// CliqueOccs indexes From entries whose predicate belongs to the
	// same clique as Head (the occurrences semi-naive differentiates).
	CliqueOccs []int
}

// Source returns the original clause's source text.
func (r *RuleSQL) Source() string { return r.src }

// SQL renders the rule with the given predicate→table mapping, its
// constants written in as literals: the text EXPLAIN shows, which runs
// as it reads.
func (r *RuleSQL) SQL(tableOf func(pred string) string) string {
	return r.render(tableOf, true)
}

// ParamSQL renders the rule as SQL does but with each body constant its
// value parameter ?k, to be prepared and executed with Values.
func (r *RuleSQL) ParamSQL(tableOf func(pred string) string) string {
	return r.render(tableOf, false)
}

// render writes the rule's text, its constants as literals or as ?k.
func (r *RuleSQL) render(tableOf func(pred string) string, literals bool) string {
	var b strings.Builder
	b.WriteString("SELECT DISTINCT ")
	b.WriteString(r.SelectList)
	b.WriteString(" FROM ")
	for i, f := range r.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tableOf(f.Pred))
		b.WriteByte(' ')
		b.WriteString(f.Alias)
	}
	if r.Where != "" {
		b.WriteString(" WHERE ")
		where := r.Where
		for literals {
			// Where has a '?' only where a parameter stands.
			q := strings.IndexByte(where, '?')
			if q < 0 {
				break
			}
			end := q + 1
			for end < len(where) && '0' <= where[end] && where[end] <= '9' {
				end++
			}
			k, _ := strconv.Atoi(where[q+1 : end])
			b.WriteString(where[:q])
			b.WriteString(r.Values[k-1].SQL())
			where = where[end:]
		}
		b.WriteString(where)
	}
	return b.String()
}

// Node mirrors one entry of the evaluation order list.
type Node struct {
	// Preds are the predicates this node evaluates.
	Preds []string
	// Recursive marks clique nodes (LFP computation).
	Recursive bool
	// ExitRules and RecursiveRules partition the compiled rules.
	ExitRules      []RuleSQL
	RecursiveRules []RuleSQL
}

// SeedFact is a ground tuple inserted into a derived predicate before
// evaluation (magic seeds).
type SeedFact struct {
	Pred  string
	Tuple rel.Tuple
}

// Program is the compiled evaluation program: the data structures the
// paper's code fragment loads.
type Program struct {
	// Nodes in evaluation order (dependencies first).
	Nodes []Node
	// QueryPred is the predicate whose relation holds the answer, in
	// the query's variable order: the query rule's head, or — when
	// Generate dropped that rule because it only renamed one derived
	// relation (answerAlias) — the predicate that rule read, whose
	// relation is then the answer as it was derived.
	QueryPred string
	// Schemas maps each derived predicate to its (c0..cn-1) schema.
	Schemas map[string]*rel.Schema
	// BasePreds lists the extensional predicates the program reads.
	BasePreds []string
	// Seeds are initial facts for derived predicates.
	Seeds []SeedFact
}

// Generate compiles an analyzed rule set into a Program. derivedTypes
// must cover every derived predicate in the order (from typeinf.Infer).
// A last node that only renames a derived relation into the query
// predicate is not compiled: the program answers from that relation
// (answerAlias).
func Generate(order []*pcg.Node, derivedTypes map[string][]rel.Type, basePreds []string, queryPred string) (*Program, error) {
	prog := &Program{
		QueryPred: queryPred,
		Schemas:   make(map[string]*rel.Schema),
		BasePreds: append([]string(nil), basePreds...),
	}
	if p := answerAlias(order, queryPred); p != "" {
		order, prog.QueryPred = order[:len(order)-1], p
	}
	// Every rule's source, back to back; ends[i] is where the i-th
	// compiled rule's source ends.
	var srcBuf [1024]byte
	src, ends := srcBuf[:0], make([]int, 0, 32)
	for _, n := range order {
		node := Node{
			Preds:     append([]string(nil), n.Preds...),
			Recursive: n.Recursive,
		}
		inClique := make(map[string]bool, len(n.Preds))
		for _, p := range n.Preds {
			inClique[p] = true
			types, ok := derivedTypes[p]
			if !ok {
				return nil, fmt.Errorf("codegen: no inferred types for %s", p)
			}
			cols := make([]rel.Column, len(types))
			for i, t := range types {
				cols[i] = rel.Column{Name: fmt.Sprintf("c%d", i), Type: t}
			}
			schema, err := rel.NewSchema(cols...)
			if err != nil {
				return nil, err
			}
			prog.Schemas[p] = schema
		}
		for _, c := range n.ExitRules {
			rs, err := compileRule(c, inClique)
			if err != nil {
				return nil, err
			}
			node.ExitRules = append(node.ExitRules, rs)
			src = c.Append(src)
			ends = append(ends, len(src))
		}
		for _, c := range n.RecursiveRules {
			rs, err := compileRule(c, inClique)
			if err != nil {
				return nil, err
			}
			node.RecursiveRules = append(node.RecursiveRules, rs)
			src = c.Append(src)
			ends = append(ends, len(src))
		}
		prog.Nodes = append(prog.Nodes, node)
	}
	text, start := string(src), 0
	for i := range prog.Nodes {
		for _, rules := range [2][]RuleSQL{prog.Nodes[i].ExitRules, prog.Nodes[i].RecursiveRules} {
			for j := range rules {
				rules[j].src = text[start:ends[0]]
				start, ends = ends[0], ends[1:]
			}
		}
	}
	return prog, nil
}

// answerAlias returns p when the last node of order is the query
// predicate's own non-recursive node with the one rule
//
//	queryPred(V1, ..., Vn) :- p(V1, ..., Vn).
//
// — distinct variables, in the same order — and some earlier node
// evaluates p; else "". That rule only renames p's relation: every
// derived relation is a set, as each rule's INSERT adds only the tuples
// its target lacks (rtlib.RuleInsert), so p's relation already is the
// deduplicated answer, and copying it into the query predicate's would
// build a key set of it and write every row once more. A constant, a
// repeated variable, a projection, a base predicate or a second goal
// keeps the node: there the rule computes something.
func answerAlias(order []*pcg.Node, queryPred string) string {
	if len(order) < 2 {
		return ""
	}
	last := order[len(order)-1]
	if last.Recursive || len(last.Preds) != 1 || last.Preds[0] != queryPred ||
		len(last.ExitRules) != 1 || len(last.RecursiveRules) != 0 {
		return ""
	}
	rule := last.ExitRules[0]
	if len(rule.Body) != 1 || len(rule.Body[0].Args) != len(rule.Head.Args) {
		return ""
	}
	seen := make(map[string]bool, len(rule.Head.Args))
	for i, h := range rule.Head.Args {
		b := rule.Body[0].Args[i]
		if !h.IsVar() || !b.IsVar() || b.Var != h.Var || seen[h.Var] {
			return ""
		}
		seen[h.Var] = true
	}
	p := rule.Body[0].Pred
	for _, n := range order[:len(order)-1] {
		if slices.Contains(n.Preds, p) {
			return p
		}
	}
	return ""
}

// Explain renders the program as text: the evaluation order list with
// each node's kind, predicates and compiled SQL (derived relations
// shown as <pred>, extensional relations by their table names). The
// shell's .explain command and documentation use it.
func (p *Program) Explain() string {
	var b strings.Builder
	tableOf := func(pred string) string {
		if _, derived := p.Schemas[pred]; derived {
			return "<" + pred + ">"
		}
		return BaseTable(pred)
	}
	fmt.Fprintf(&b, "query predicate: %s\n", p.QueryPred)
	if len(p.Seeds) > 0 {
		b.WriteString("seeds:\n")
		for _, s := range p.Seeds {
			fmt.Fprintf(&b, "  %s%s\n", s.Pred, s.Tuple.String())
		}
	}
	for i, n := range p.Nodes {
		kind := "predicate"
		if n.Recursive {
			kind = "clique"
		}
		fmt.Fprintf(&b, "node %d (%s): %s\n", i+1, kind, strings.Join(n.Preds, ", "))
		for _, r := range n.ExitRules {
			fmt.Fprintf(&b, "  exit  %s\n        %s\n", r.Source(), r.SQL(tableOf))
		}
		for _, r := range n.RecursiveRules {
			fmt.Fprintf(&b, "  rec   %s\n        %s\n", r.Source(), r.SQL(tableOf))
		}
	}
	return b.String()
}

// CompileRule translates one clause into its RuleSQL. inClique marks
// predicates mutually recursive with the head (may be nil).
func CompileRule(c dlog.Clause, inClique map[string]bool) (RuleSQL, error) {
	rs, err := compileRule(c, inClique)
	if err != nil {
		return RuleSQL{}, err
	}
	rs.src = c.String()
	return rs, nil
}

// compileRule is CompileRule without the source text, which Generate
// renders for a whole program at once.
func compileRule(c dlog.Clause, inClique map[string]bool) (RuleSQL, error) {
	if len(c.Body) == 0 {
		return RuleSQL{}, fmt.Errorf("codegen: cannot compile bodiless clause %q; facts belong in the extensional database", c.String())
	}
	rs := RuleSQL{Head: c.Head.Pred}

	// First occurrence of each variable.
	type pos struct{ atom, arg int }
	firstOcc := make(map[string]pos)
	var conds []string
	for ai, a := range c.Body {
		alias := fmt.Sprintf("t%d", ai)
		rs.From = append(rs.From, FromEntry{Pred: a.Pred, Alias: alias})
		if inClique != nil && inClique[a.Pred] {
			rs.CliqueOccs = append(rs.CliqueOccs, ai)
		}
		for gi, t := range a.Args {
			ref := fmt.Sprintf("%s.c%d", alias, gi)
			if t.IsVar() {
				if f, seen := firstOcc[t.Var]; seen {
					conds = append(conds, fmt.Sprintf("%s = t%d.c%d", ref, f.atom, f.arg))
				} else {
					firstOcc[t.Var] = pos{ai, gi}
				}
			} else {
				rs.Values = append(rs.Values, t.Val)
				conds = append(conds, fmt.Sprintf("%s = ?%d", ref, len(rs.Values)))
			}
		}
	}
	rs.Where = strings.Join(conds, " AND ")

	var sel []string
	for _, t := range c.Head.Args {
		if t.IsVar() {
			f, seen := firstOcc[t.Var]
			if !seen {
				return RuleSQL{}, fmt.Errorf("codegen: head variable %s unbound in %q (rule not range-restricted)", t.Var, c.String())
			}
			sel = append(sel, fmt.Sprintf("t%d.c%d", f.atom, f.arg))
		} else {
			sel = append(sel, t.Val.SQL())
		}
	}
	rs.SelectList = strings.Join(sel, ", ")
	return rs, nil
}
