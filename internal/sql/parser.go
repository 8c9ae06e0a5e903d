package sql

import (
	"fmt"
	"strconv"

	"dkbms/internal/rel"
)

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input after statement")
	}
	return st, nil
}

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

// expect consumes a matching token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case tokIdent:
			want = "identifier"
		case tokInt:
			want = "integer"
		case tokString:
			want = "string"
		default:
			want = "token"
		}
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d in %q)", fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.accept(tokKeyword, "CREATE"):
		return p.create()
	case p.accept(tokKeyword, "DROP"):
		return p.drop()
	case p.accept(tokKeyword, "INSERT"):
		return p.insert()
	case p.accept(tokKeyword, "DELETE"):
		return p.deleteStmt()
	default:
		return nil, p.errf("unknown statement start %q", p.cur().text)
	}
}

func (p *parser) create() (Statement, error) {
	temp := p.accept(tokKeyword, "TEMP")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var cols []rel.Column
		for {
			cn, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			tt := p.cur()
			if tt.kind != tokKeyword {
				return nil, p.errf("expected column type, found %q", tt.text)
			}
			ty, err := rel.ParseType(tt.text)
			if err != nil {
				return nil, p.errf("bad column type %q", tt.text)
			}
			p.i++
			// CHAR(20)-style length specifiers are accepted and ignored.
			if p.accept(tokSymbol, "(") {
				if _, err := p.expect(tokInt, ""); err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
			}
			cols = append(cols, rel.Column{Name: cn.text, Type: ty})
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return CreateTable{Name: name.text, Columns: cols, Temp: temp}, nil

	case p.accept(tokKeyword, "INDEX"):
		if temp {
			return nil, p.errf("CREATE TEMP INDEX is not supported; index temp-ness follows the table")
		}
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			cn, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			cols = append(cols, cn.text)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return CreateIndex{Name: name.text, Table: table.text, Columns: cols}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) drop() (Statement, error) {
	switch {
	case p.accept(tokKeyword, "TABLE"):
		ifExists := false
		if p.accept(tokKeyword, "IF") {
			if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return DropTable{Name: name.text, IfExists: ifExists}, nil
	case p.accept(tokKeyword, "INDEX"):
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return DropIndex{Name: name.text}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

// MaxParam bounds $n and ?n: parameters index a slice the caller
// supplies.
const MaxParam = 1 << 10

// param consumes the current token, a $n or ?n, and returns n.
func (p *parser) param(sigil string) (int, error) {
	t := p.cur()
	n, err := strconv.Atoi(t.text)
	if err != nil || n > MaxParam {
		return 0, p.errf("parameter %s%s out of range", sigil, t.text)
	}
	p.i++
	return n, nil
}

// tablePosition parses a table name or a table parameter $n.
func (p *parser) tablePosition() (name string, param int, err error) {
	if p.at(tokParam, "") {
		n, err := p.param("$")
		return "", n, err
	}
	t, err := p.expect(tokIdent, "")
	return t.text, 0, err
}

func (p *parser) insert() (Statement, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, param, err := p.tablePosition()
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "VALUES") {
		if param != 0 {
			return nil, p.errf("INSERT INTO $%d VALUES: a parameter target takes a SELECT", param)
		}
		var rows [][]Expr
		for {
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				lit, err := p.literal()
				if err != nil {
					return nil, err
				}
				row = append(row, lit)
				if p.accept(tokSymbol, ",") {
					continue
				}
				break
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		return Insert{Table: table, Rows: rows}, nil
	}
	if p.at(tokKeyword, "SELECT") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return Insert{Table: table, Param: param, Query: sel}, nil
	}
	return nil, p.errf("expected VALUES or SELECT after INSERT INTO")
}

func (p *parser) deleteStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.accept(tokKeyword, "WHERE") {
		where, err = p.orExpr()
		if err != nil {
			return nil, err
		}
	}
	return Delete{Table: table.text, Where: where}, nil
}

// selectStmt parses a select with optional compound set operations,
// left-associated.
func (p *parser) selectStmt() (*Select, error) {
	head, err := p.simpleSelect()
	if err != nil {
		return nil, err
	}
	cur := head
	for {
		var op SetOp
		switch {
		case p.accept(tokKeyword, "UNION"):
			if p.accept(tokKeyword, "ALL") {
				op = SetUnionAll
			} else {
				op = SetUnion
			}
		case p.accept(tokKeyword, "EXCEPT"):
			op = SetExcept
		case p.accept(tokKeyword, "INTERSECT"):
			op = SetIntersect
		default:
			return head, nil
		}
		rhs, err := p.simpleSelect()
		if err != nil {
			return nil, err
		}
		cur.SetOp = op
		cur.Next = rhs
		cur = rhs
	}
}

func (p *parser) simpleSelect() (*Select, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.accept(tokKeyword, "DISTINCT")
	switch {
	case p.accept(tokSymbol, "*"):
		// empty Items = all columns
	case p.accept(tokKeyword, "COUNT"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "*"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		sel.CountStar = true
	default:
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, tr)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	e, err := p.operand()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.text
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, param, err := p.tablePosition()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name, Param: param, Alias: name}
	if param != 0 {
		tr.Alias = "$" + strconv.Itoa(param)
	}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a.text
	} else if p.at(tokIdent, "") {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// --- expressions: or > and > not > comparison > operand ---

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = Or{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = And{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Not{Inner: inner}, nil
	}
	// Parenthesized boolean sub-expression vs parenthesized operand: we
	// only need boolean parens (operands are atomic), so '(' always
	// opens a boolean group here.
	if p.accept(tokSymbol, "(") {
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind != tokSymbol {
		return nil, p.errf("expected comparison operator, found %q", t.text)
	}
	var op CmpOp
	switch t.text {
	case "=":
		op = CmpEq
	case "<>", "!=":
		op = CmpNe
	case "<":
		op = CmpLt
	case "<=":
		op = CmpLe
	case ">":
		op = CmpGt
	case ">=":
		op = CmpGe
	default:
		return nil, p.errf("expected comparison operator, found %q", t.text)
	}
	p.next()
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return Compare{Op: op, Left: left, Right: right}, nil
}

// operand parses a column reference, a literal or a value parameter.
func (p *parser) operand() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokValue:
		n, err := p.param("?")
		if err != nil {
			return nil, err
		}
		return ValueParam{N: n}, nil
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return Literal{Value: rel.NewInt(n)}, nil
	case tokString:
		p.next()
		return Literal{Value: rel.NewString(t.text)}, nil
	case tokIdent:
		p.next()
		if p.accept(tokSymbol, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return ColRef{Table: t.text, Column: col.text}, nil
		}
		return ColRef{Column: t.text}, nil
	default:
		return nil, p.errf("expected operand, found %q", t.text)
	}
}

// literal parses a literal only (INSERT VALUES rows).
func (p *parser) literal() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return Literal{Value: rel.NewInt(n)}, nil
	case tokString:
		p.next()
		return Literal{Value: rel.NewString(t.text)}, nil
	default:
		return nil, p.errf("expected literal, found %q", t.text)
	}
}
