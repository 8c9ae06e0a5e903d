package dlog

import (
	"strings"
	"testing"
)

// renderProgram writes a program back as source: its clauses, then its
// queries, one per line.
func renderProgram(p *Program) string {
	var b strings.Builder
	for _, c := range p.Clauses {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	for _, q := range p.Queries {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzParseProgram feeds the Horn-clause parser arbitrary text — what a
// client sends in a LOAD or QUERY reaches it unchecked: it never panics,
// an accepted program's rendering parses to the same rendering, and
// each rendered clause and query parses alone (ParseClause,
// ParseQuery) to itself. In every accepted clause and query each atom's
// arguments, the clause's body and the query's goals are capped at
// their length: the parser slices them from shared arrays, and an
// append to one must copy it rather than write its neighbour's terms.
// The seed corpus under testdata/fuzz holds
// facts, rules in both arrow syntaxes, queries, comments, quoted and
// escaped strings, integers, high-byte identifiers and malformed input.
func FuzzParseProgram(f *testing.F) {
	f.Add("parent(john, mary). anc(X, Y) :- parent(X, Z), anc(Z, Y).\n?- anc(john, W).")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		for _, c := range prog.Clauses {
			checkCapped(t, c.String(), append([]Atom{c.Head}, c.Body...), c.Body)
		}
		for _, q := range prog.Queries {
			checkCapped(t, q.String(), q.Goals, q.Goals)
		}
		text := renderProgram(prog)
		again, err := ParseProgram(text)
		if err != nil {
			t.Fatalf("ParseProgram(%q) accepted, but its rendering %q does not parse: %v", src, text, err)
		}
		if got := renderProgram(again); got != text {
			t.Fatalf("ParseProgram(%q) renders as %q, which re-renders as %q", src, text, got)
		}
		for _, c := range prog.Clauses {
			one, err := ParseClause(c.String())
			if err != nil || one.String() != c.String() {
				t.Fatalf("clause %q parses alone as %q, %v", c.String(), one.String(), err)
			}
		}
		for _, q := range prog.Queries {
			one, err := ParseQuery(q.String())
			if err != nil || one.String() != q.String() {
				t.Fatalf("query %q parses alone as %q, %v", q.String(), one.String(), err)
			}
		}
	})
}

// checkCapped fails t unless list and every atom's arguments have
// capacity equal to their length.
func checkCapped(t *testing.T, src string, atoms, list []Atom) {
	t.Helper()
	if cap(list) != len(list) {
		t.Fatalf("%q: atom list of length %d has capacity %d", src, len(list), cap(list))
	}
	for _, a := range atoms {
		if cap(a.Args) != len(a.Args) {
			t.Fatalf("%q: the arguments of %s, %d, have capacity %d", src, a.String(), len(a.Args), cap(a.Args))
		}
	}
}
