package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokString
	tokParam  // $n, a table parameter; text is n in decimal
	tokValue  // ?n, a value parameter; text is n in decimal
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers lower-cased
	pos  int    // byte offset in the input, for error messages
}

// keywords recognized by the dialect, each mapped to itself so a match
// yields the constant as the token text. Identifiers colliding with
// these must be avoided by callers (the code generator mangles its
// names).
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		"SELECT", "DISTINCT", "FROM", "WHERE",
		"AND", "OR", "NOT", "AS",
		"CREATE", "DROP", "TABLE", "INDEX",
		"TEMP", "ON", "IF", "EXISTS",
		"INSERT", "INTO", "VALUES", "DELETE",
		"UNION", "ALL", "EXCEPT", "INTERSECT",
		"COUNT", "INTEGER", "INT", "CHAR",
		"VARCHAR",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (INTERSECT).
const maxKeywordLen = 9

// keyword matches word against the keywords ignoring ASCII case,
// without allocating, and returns the keyword's upper-case constant.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src fully, returning the token stream.
func lex(src string) ([]token, error) {
	// Statements run three to seven bytes a token; a denser one grows
	// the slice once.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/3+1)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c >= '0' && c <= '9':
			l.lexNumber(start)
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.pos++
			l.lexNumber(start)
		case isIdentStart(c):
			l.lexWord(start)
		case c == '$':
			if err := l.lexParam(start, tokParam); err != nil {
				return nil, err
			}
		case c == '?':
			if err := l.lexParam(start, tokValue); err != nil {
				return nil, err
			}
		default:
			sym, err := l.lexSymbol()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) lexString() (string, error) {
	// l.src[l.pos] == '\''
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("sql: unterminated string literal at offset %d", l.pos)
}

func (l *lexer) lexNumber(start int) {
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokInt, text: l.src[start:l.pos], pos: start})
}

// lexParam lexes $n or ?n, n a decimal number from 1.
func (l *lexer) lexParam(start int, kind tokenKind) error {
	l.pos++
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	n := l.src[start+1 : l.pos]
	if n == "" || n[0] == '0' {
		return fmt.Errorf("sql: %q without a parameter number at offset %d", l.src[start], start)
	}
	l.toks = append(l.toks, token{kind: kind, text: n, pos: start})
	return nil
}

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if kw, ok := keyword(word); ok {
		l.toks = append(l.toks, token{kind: tokKeyword, text: kw, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
	}
}

func (l *lexer) lexSymbol() (string, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "!=", "<=", ">=":
		l.pos += 2
		return two, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '=', '<', '>', '*', ';':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("sql: unexpected character %q at offset %d", c, l.pos)
}

// Identifiers are ASCII: a letter or '_', then letters, digits and '_'.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9'
}
