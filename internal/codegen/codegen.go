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
	"sync/atomic"

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

// AppendBaseTable appends BaseTable(pred) to buf: a name to look the
// table up with (db.DB.TableBytes) that no string is built for.
func AppendBaseTable(buf []byte, pred string) []byte {
	return AppendIdent(append(buf, "edb_"...), strings.TrimPrefix(pred, BridgePrefix))
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
	if plainIdent(pred) {
		return pred
	}
	return string(AppendIdent(make([]byte, 0, len(pred)+8), pred))
}

// plainIdent reports whether pred is within [a-z0-9_], its own
// spelling.
func plainIdent(pred string) bool {
	for i := 0; i < len(pred); i++ {
		if c := pred[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// AppendIdent appends Ident(pred) to b.
func AppendIdent(b []byte, pred string) []byte {
	if plainIdent(pred) {
		return append(b, pred...)
	}
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
	return b
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
}

// Source returns the original clause's source text.
func (r *RuleSQL) Source() string { return r.src }

// SQL renders the rule with the given predicate→table mapping, its
// constants written in as literals: the text EXPLAIN shows, which runs
// as it reads.
func (r *RuleSQL) SQL(tableOf func(pred string) string) string {
	var buf [256]byte
	return string(r.appendSQL(buf[:0], tableOf, true))
}

// ParamSQL renders the rule as SQL does but with each body constant its
// value parameter ?k, to be prepared and executed with Values.
func (r *RuleSQL) ParamSQL(tableOf func(pred string) string) string {
	var buf [256]byte
	return string(r.appendSQL(buf[:0], tableOf, false))
}

// AppendParamSQL appends to b the text ParamSQL renders with the k-th
// FROM relation the table parameter $k: the body a run prepares
// (rtlib's statements.rule).
func (r *RuleSQL) AppendParamSQL(b []byte) []byte { return r.appendSQL(b, nil, false) }

// appendSQL appends the rule's text, its constants as literals or as
// ?k, and its k-th relation as tableOf names it or, when tableOf is
// nil, as $k.
func (r *RuleSQL) appendSQL(b []byte, tableOf func(pred string) string, literals bool) []byte {
	b = append(b, "SELECT DISTINCT "...)
	b = append(b, r.SelectList...)
	b = append(b, " FROM "...)
	for i, f := range r.From {
		if i > 0 {
			b = append(b, ", "...)
		}
		if tableOf != nil {
			b = append(b, tableOf(f.Pred)...)
		} else {
			b = strconv.AppendInt(append(b, '$'), int64(i+1), 10)
		}
		b = append(append(b, ' '), f.Alias...)
	}
	if r.Where == "" {
		return b
	}
	b = append(b, " WHERE "...)
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
		b = r.Values[k-1].AppendSQL(append(b, where[:q]...))
		where = where[end:]
	}
	return append(b, where...)
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
//
// A program is allocated whole, not rule by rule: its nodes, its rules,
// and their FROM entries and constants each take one array, and every
// rule's select list, WHERE and source are slices of one string. The
// node predicates and basePreds are the analysis's, and the schemas
// Schema's, shared.
func Generate(order []pcg.Node, derivedTypes map[string][]rel.Type, basePreds []string, queryPred string) (*Program, error) {
	prog := &Program{QueryPred: queryPred, BasePreds: basePreds}
	if p := answerAlias(order, queryPred); p != "" {
		order, prog.QueryPred = order[:len(order)-1], p
	}
	var nPreds, nRules, nFrom, nVals int
	for i := range order {
		n := &order[i]
		nPreds += len(n.Preds)
		for _, rules := range [2][]dlog.Clause{n.ExitRules, n.RecursiveRules} {
			nRules += len(rules)
			for _, c := range rules {
				nFrom += len(c.Body)
				for _, a := range c.Body {
					for _, t := range a.Args {
						if !t.IsVar() {
							nVals++
						}
					}
				}
			}
		}
	}
	prog.Nodes = make([]Node, len(order))
	prog.Schemas = make(map[string]*rel.Schema, nPreds)
	var w writer
	w.init(nRules, nFrom, nVals)
	var textBuf [2048]byte
	var endsBuf [96]int
	t := text{b: textBuf[:0], ends: endsBuf[:0]}
	for i := range order {
		n := &order[i]
		node := &prog.Nodes[i]
		node.Preds, node.Recursive = n.Preds, n.Recursive
		for _, p := range n.Preds {
			types, ok := derivedTypes[p]
			if !ok {
				return nil, fmt.Errorf("codegen: no inferred types for %s", p)
			}
			schema, err := Schema(types)
			if err != nil {
				return nil, err
			}
			prog.Schemas[p] = schema
		}
		var err error
		if node.ExitRules, t, err = w.compile(t, n.ExitRules); err != nil {
			return nil, err
		}
		if node.RecursiveRules, t, err = w.compile(t, n.RecursiveRules); err != nil {
			return nil, err
		}
	}
	w.finish(t)
	return prog, nil
}

// writer compiles the rules of one program (or one rule) into arrays it
// slices them from: each compile takes the next rules, FROM entries
// and constants, and appends the rules' text to one buffer, which
// finish turns into the one string their text fields are slices of.
type writer struct {
	all    []RuleSQL // the rules, the first next of them compiled
	next   int
	from   []FromEntry
	values []rel.Value
}

// text holds, per compiled rule, its select list, its WHERE and its
// source, back to back; ends has the three end offsets of each. It is
// passed along by value, so that a caller's buffer on the stack stays
// there.
type text struct {
	b    []byte
	ends []int
}

// init sizes the writer's arrays.
func (w *writer) init(rules, from, values int) {
	w.all, w.next = make([]RuleSQL, rules), 0
	w.from, w.values = make([]FromEntry, from), make([]rel.Value, values)
}

// compile compiles clauses into the writer's next len(clauses) rules
// and returns them, capped.
func (w *writer) compile(t text, clauses []dlog.Clause) ([]RuleSQL, text, error) {
	if len(clauses) == 0 {
		return nil, t, nil
	}
	out := w.all[w.next : w.next+len(clauses) : w.next+len(clauses)]
	w.next += len(clauses)
	for i, c := range clauses {
		var err error
		if t, err = w.rule(t, c, &out[i]); err != nil {
			return nil, t, err
		}
	}
	return out, t, nil
}

// take returns the next k elements of *arena, capped; nil when k is 0.
func take[T any](arena *[]T, k int) []T {
	if k == 0 {
		return nil
	}
	s := (*arena)[:k:k]
	*arena = (*arena)[k:]
	return s
}

// rule compiles c into rs, appending its text to t; its text fields
// are set by finish.
func (w *writer) rule(t text, c dlog.Clause, rs *RuleSQL) (text, error) {
	if len(c.Body) == 0 {
		return t, fmt.Errorf("codegen: cannot compile bodiless clause %q; facts belong in the extensional database", c.String())
	}
	rs.Head = c.Head.Pred
	rs.From = take(&w.from, len(c.Body))
	nVals := 0
	for ai, a := range c.Body {
		rs.From[ai] = FromEntry{Pred: a.Pred, Alias: alias(ai)}
		for _, t := range a.Args {
			if !t.IsVar() {
				nVals++
			}
		}
	}
	rs.Values = take(&w.values, nVals)

	// The select list: each head term a column of its variable's first
	// occurrence, or a literal.
	b := t.b
	for i, h := range c.Head.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		if !h.IsVar() {
			b = h.Val.AppendSQL(b)
			continue
		}
		ai, gi := firstOcc(c.Body, h.Var, len(c.Body), 0)
		if ai < 0 {
			return t, fmt.Errorf("codegen: head variable %s unbound in %q (rule not range-restricted)", h.Var, c.String())
		}
		b = appendColumn(b, ai, gi)
	}
	t.ends = append(t.ends, len(b))

	// The WHERE: a variable met before equals its first occurrence, a
	// constant its value parameter.
	conds, k := 0, 0
	for ai, a := range c.Body {
		for gi, arg := range a.Args {
			fa, fg := -1, 0
			if arg.IsVar() {
				if fa, fg = firstOcc(c.Body, arg.Var, ai, gi); fa < 0 {
					continue
				}
			}
			if conds > 0 {
				b = append(b, " AND "...)
			}
			conds++
			b = append(appendColumn(b, ai, gi), " = "...)
			if fa >= 0 {
				b = appendColumn(b, fa, fg)
				continue
			}
			rs.Values[k] = arg.Val
			k++
			b = strconv.AppendInt(append(b, '?'), int64(k), 10)
		}
	}
	t.ends = append(t.ends, len(b))
	b = c.Append(b)
	t.b, t.ends = b, append(t.ends, len(b))
	return t, nil
}

// firstOcc returns the position (atom, argument) of the first
// occurrence of variable v in body before argument gi of atom ai, or
// -1 when there is none.
func firstOcc(body []dlog.Atom, v string, ai, gi int) (int, int) {
	for aj := 0; aj <= ai && aj < len(body); aj++ {
		args := body[aj].Args
		if aj == ai {
			args = args[:gi]
		}
		for gj, t := range args {
			if t.IsVar() && t.Var == v {
				return aj, gj
			}
		}
	}
	return -1, 0
}

// appendColumn appends t<atom>.c<arg>.
func appendColumn(b []byte, atom, arg int) []byte {
	b = append(strconv.AppendInt(append(b, 't'), int64(atom), 10), ".c"...)
	return strconv.AppendInt(b, int64(arg), 10)
}

// finish hands the compiled rules their text: the buffer becomes one
// string, and each rule's fields slices of it.
func (w *writer) finish(t text) {
	s, start := string(t.b), 0
	for i := range w.all[:w.next] {
		rs, e := &w.all[i], t.ends[3*i:3*i+3]
		rs.SelectList, rs.Where, rs.src = s[start:e[0]], s[e[0]:e[1]], s[e[1]:e[2]]
		start = e[2]
	}
}

// aliases are the FROM aliases of the first body atoms.
var aliases = [...]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t14", "t15"}

// alias returns the FROM alias of the i-th body atom, t<i>.
func alias(i int) string {
	if i < len(aliases) {
		return aliases[i]
	}
	return "t" + strconv.Itoa(i)
}

// maxCanonical is the most columns of a schema Schema shares.
const maxCanonical = 4

// canonical holds the schemas Schema has made of up to maxCanonical
// columns of types INTEGER and CHAR: slot 2^n-1+b for n columns, bit i
// of b set when column i is CHAR. A schema is immutable, so every
// program shares them; each is made on first use, so only the
// signatures in use take memory.
var canonical [1<<(maxCanonical+1) - 1]atomic.Pointer[rel.Schema]

// Schema returns the schema of a predicate relation of the given column
// types: columns c0, c1, ... One of a few INTEGER and CHAR columns is
// made once and shared (canonical).
func Schema(types []rel.Type) (*rel.Schema, error) {
	slot, shared := canonicalSlot(types)
	if shared {
		if s := canonical[slot].Load(); s != nil {
			return s, nil
		}
	}
	cols := make([]rel.Column, len(types))
	for i, t := range types {
		cols[i] = rel.Column{Name: "c" + strconv.Itoa(i), Type: t}
	}
	s, err := rel.NewSchema(cols...)
	if err == nil && shared && !canonical[slot].CompareAndSwap(nil, s) {
		s = canonical[slot].Load()
	}
	return s, err
}

// canonicalSlot returns the slot of canonical holding the schema of
// types, if one does.
func canonicalSlot(types []rel.Type) (int, bool) {
	if len(types) > maxCanonical {
		return 0, false
	}
	slot := 1<<len(types) - 1
	for i, t := range types {
		switch t {
		case rel.TypeInt:
		case rel.TypeString:
			slot += 1 << i
		default:
			return 0, false
		}
	}
	return slot, true
}

// answerAlias returns p when the last node of order is the query
// predicate's own non-recursive node with the one rule
//
//	queryPred(V1, ..., Vn) :- p(V1, ..., Vn).
//
// — distinct variables, in the same order — and some earlier node
// evaluates p; else "". That rule only renames p's relation: every
// derived relation is a set, as each rule's INSERT adds only the tuples
// its target lacks (rtlib's ruleInsert form), so p's relation already is the
// deduplicated answer, and copying it into the query predicate's would
// build a key set of it and write every row once more. A constant, a
// repeated variable, a projection, a base predicate or a second goal
// keeps the node: there the rule computes something.
func answerAlias(order []pcg.Node, queryPred string) string {
	if len(order) < 2 {
		return ""
	}
	last := &order[len(order)-1]
	if last.Recursive || len(last.Preds) != 1 || last.Preds[0] != queryPred ||
		len(last.ExitRules) != 1 || len(last.RecursiveRules) != 0 {
		return ""
	}
	rule := last.ExitRules[0]
	if len(rule.Body) != 1 || len(rule.Body[0].Args) != len(rule.Head.Args) {
		return ""
	}
	for i, h := range rule.Head.Args {
		b := rule.Body[0].Args[i]
		if !h.IsVar() || !b.IsVar() || b.Var != h.Var {
			return ""
		}
		for _, e := range rule.Head.Args[:i] {
			if e.Var == h.Var {
				return ""
			}
		}
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

// CompileRule translates one clause into its RuleSQL.
func CompileRule(c dlog.Clause) (RuleSQL, error) {
	vals := 0
	for _, a := range c.Body {
		for _, t := range a.Args {
			if !t.IsVar() {
				vals++
			}
		}
	}
	var w writer
	w.init(1, len(c.Body), vals)
	_, t, err := w.compile(text{}, []dlog.Clause{c})
	if err != nil {
		return RuleSQL{}, err
	}
	w.finish(t)
	return w.all[0], nil
}
