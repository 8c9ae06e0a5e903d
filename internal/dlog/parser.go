package dlog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseProgram parses a sequence of clauses and queries.
func ParseProgram(src string) (*Program, error) {
	p := &dparser{src: src}
	prog := &Program{}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return prog, nil
		}
		if p.peekStr("?-") {
			q, err := p.query()
			if err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, q)
			continue
		}
		c, err := p.clause()
		if err != nil {
			return nil, err
		}
		prog.Clauses = append(prog.Clauses, c)
	}
}

// ParseClause parses exactly one clause (rule or fact).
func ParseClause(src string) (Clause, error) {
	p := &dparser{src: src}
	c, err := p.clause()
	if err != nil {
		return Clause{}, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return Clause{}, p.errf("trailing input after clause")
	}
	return c, nil
}

// ParseQuery parses exactly one query ("?- ..." with the prefix
// optional).
func ParseQuery(src string) (Query, error) {
	p := &dparser{src: src}
	p.skipSpace()
	p.peekStr("?-") // consume if present
	q, err := p.goals()
	if err != nil {
		return Query{}, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return Query{}, p.errf("trailing input after query")
	}
	return q, nil
}

// MustParseClause is ParseClause panicking on error; for tests and
// fixture literals.
func MustParseClause(src string) Clause {
	c, err := ParseClause(src)
	if err != nil {
		panic(err)
	}
	return c
}

type dparser struct {
	src string
	pos int
}

func (p *dparser) errf(format string, args ...any) error {
	tail := p.src[p.pos:]
	if len(tail) > 40 {
		tail = tail[:40] + "..."
	}
	return fmt.Errorf("dlog: %s (at %q)", fmt.Sprintf(format, args...), tail)
}

func (p *dparser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == '%' { // Prolog-style line comment
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c == '#' { // shell-style line comment
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

// peekStr consumes s if the input starts with it.
func (p *dparser) peekStr(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *dparser) expectByte(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *dparser) query() (Query, error) {
	q, err := p.goals()
	if err != nil {
		return Query{}, err
	}
	return q, nil
}

// atomSpan is an atom being parsed: its predicate and where its
// arguments lie in the scratch term list.
type atomSpan struct {
	pred       string
	start, end int
}

// scratch collects a clause's or a query's atoms and their terms as
// they are parsed, so that each list is allocated once, at its final
// length. Its buffers are the caller's, on its stack.
type scratch struct {
	terms []Term
	atoms []atomSpan
}

// build returns the atoms sc holds — with from 1 the first apart, as a
// clause's head — in one array of atoms and one of all their terms,
// each atom's arguments capped at their length, so that an append to
// one never writes its neighbour's.
func (sc scratch) build(from int) (head Atom, atoms []Atom) {
	terms := make([]Term, len(sc.terms))
	copy(terms, sc.terms)
	mk := func(a atomSpan) Atom { return Atom{Pred: a.pred, Args: terms[a.start:a.end:a.end]} }
	if from == 1 {
		head = mk(sc.atoms[0])
	}
	if rest := sc.atoms[from:]; len(rest) > 0 {
		atoms = make([]Atom, len(rest))
		for i, a := range rest {
			atoms[i] = mk(a)
		}
	}
	return head, atoms
}

func (p *dparser) goals() (Query, error) {
	var termBuf [16]Term
	var atomBuf [8]atomSpan
	sc := scratch{terms: termBuf[:0], atoms: atomBuf[:0]}
	for {
		var err error
		if sc, err = p.atom(sc); err != nil {
			return Query{}, err
		}
		p.skipSpace()
		if p.peekStr(",") {
			continue
		}
		if err := p.expectByte('.'); err != nil {
			return Query{}, err
		}
		_, goals := sc.build(0)
		return Query{Goals: goals}, nil
	}
}

func (p *dparser) clause() (Clause, error) {
	var termBuf [16]Term
	var atomBuf [8]atomSpan
	sc := scratch{terms: termBuf[:0], atoms: atomBuf[:0]}
	sc, err := p.atom(sc)
	if err != nil {
		return Clause{}, err
	}
	p.skipSpace()
	if p.peekStr(":-") || p.peekStr("<-") {
		for {
			if sc, err = p.atom(sc); err != nil {
				return Clause{}, err
			}
			if p.peekStr(",") {
				continue
			}
			break
		}
	}
	if err := p.expectByte('.'); err != nil {
		return Clause{}, err
	}
	head, body := sc.build(1)
	return Clause{Head: head, Body: body}, nil
}

// atom parses one atom into sc.
func (p *dparser) atom(sc scratch) (scratch, error) {
	p.skipSpace()
	name, err := p.identifier()
	if err != nil {
		return sc, err
	}
	if name == "" || !isPredName(name) {
		return sc, p.errf("predicate name must start with a lower-case letter or '_', got %q", name)
	}
	if err := p.expectByte('('); err != nil {
		return sc, err
	}
	start := len(sc.terms)
	for {
		t, err := p.term()
		if err != nil {
			return sc, err
		}
		sc.terms = append(sc.terms, t)
		if p.peekStr(",") {
			continue
		}
		break
	}
	if err := p.expectByte(')'); err != nil {
		return sc, err
	}
	sc.atoms = append(sc.atoms, atomSpan{pred: name, start: start, end: len(sc.terms)})
	return sc, nil
}

func (p *dparser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return Term{}, p.errf("unexpected end of input in term")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		s, err := p.quoted()
		if err != nil {
			return Term{}, err
		}
		return CStr(s), nil
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
		if err != nil {
			return Term{}, p.errf("bad integer %q", p.src[start:p.pos])
		}
		return CInt(n), nil
	default:
		name, err := p.identifier()
		if err != nil {
			return Term{}, err
		}
		if name == "" {
			return Term{}, p.errf("expected term")
		}
		if isLowerStart(name) {
			return CStr(name), nil
		}
		return V(name), nil
	}
}

func (p *dparser) quoted() (string, error) {
	// p.src[p.pos] == '"'
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return b.String(), nil
		case '\\':
			if p.pos+1 < len(p.src) {
				b.WriteByte(p.src[p.pos+1])
				p.pos += 2
				continue
			}
			return "", p.errf("dangling escape")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

func (p *dparser) identifier() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos], nil
}

func isLowerStart(s string) bool {
	return len(s) > 0 && s[0] >= 'a' && s[0] <= 'z'
}

// isPredName reports whether s can name a predicate: lower-case start
// for user predicates, '_' start for reserved internal predicates (the
// compiled query head, magic-set auxiliaries).
func isPredName(s string) bool {
	return isLowerStart(s) || (len(s) > 0 && s[0] == '_')
}
