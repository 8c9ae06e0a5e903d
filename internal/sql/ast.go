// Package sql implements the testbed DBMS's SQL front-end: a lexer, a
// recursive-descent parser and the statement AST. The dialect is the
// subset the Knowledge Manager's code generator emits plus the DDL and
// DML the stored-D/KB manager and the loader need:
//
//	CREATE TABLE t (col TYPE, ...)          DROP TABLE t
//	CREATE INDEX i ON t (col, ...)          DROP INDEX i
//	INSERT INTO t VALUES (...), (...)       INSERT INTO t SELECT ...
//	DELETE FROM t [WHERE pred]
//	SELECT [DISTINCT] items FROM t [alias] [, u [alias]]* [WHERE pred]
//	<select> UNION | EXCEPT | INTERSECT <select>
//	SELECT COUNT(*) FROM ...
//
// Predicates are boolean combinations (AND/OR/NOT, parentheses) of
// comparisons between column references and literals. Identifiers are
// ASCII and case-insensitive (folded to lower case); keywords are
// recognized in any case.
//
// A table position — an entry of FROM, the target of INSERT INTO — may
// be a parameter $1, $2, ... in place of a name, and an operand of a
// comparison or the select list may be a value parameter ?1, ?2, ... in
// place of a literal: the statement is then only good for preparing
// (db.Prepare), and each execution binds the table parameters to tables
// and the value parameters to values. $n is never a value and ?n never
// a table.
package sql

import (
	"strconv"
	"strings"

	"dkbms/internal/rel"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (cols).
type CreateTable struct {
	Name    string
	Columns []rel.Column
	// Temp marks engine-internal temporary tables (CREATE TEMP TABLE).
	Temp bool
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
	// IfExists suppresses the error when the table is absent.
	IfExists bool
}

// CreateIndex is CREATE INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
}

// DropIndex is DROP INDEX name.
type DropIndex struct {
	Name string
}

// Insert is INSERT INTO table VALUES ... or INSERT INTO table SELECT ...
type Insert struct {
	Table string
	Param int        // n when the target is $n (Table is then ""); else 0
	Rows  []([]Expr) // literal rows; nil when Select is set
	Query *Select    // nil for VALUES form
}

// Delete is DELETE FROM table [WHERE pred].
type Delete struct {
	Table string
	Where Expr // nil = delete all
}

// Select is a (possibly compound) query.
type Select struct {
	Distinct bool
	// Items is the projection list; empty means '*'. CountStar selects
	// are marked by the flag with an empty Items list.
	Items     []SelectItem
	CountStar bool
	From      []TableRef
	Where     Expr // nil = no predicate

	// Compound set operation: this select OP Next.
	SetOp SetOp
	Next  *Select
}

// SetOp identifies the compound operator chaining two selects.
type SetOp int

// Set operation kinds. SetNone marks a simple (non-compound) select.
const (
	SetNone SetOp = iota
	SetUnion
	SetUnionAll
	SetExcept
	SetIntersect
)

// SelectItem is one projection expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table in FROM, optionally aliased.
type TableRef struct {
	Table string
	Param int    // n when the position is $n (Table is then ""); else 0
	Alias string // defaults to Table, or to "$n"
}

func (CreateTable) stmt() {}
func (DropTable) stmt()   {}
func (CreateIndex) stmt() {}
func (DropIndex) stmt()   {}
func (Insert) stmt()      {}
func (Delete) stmt()      {}
func (*Select) stmt()     {}

// Expr is a scalar or boolean expression.
type Expr interface{ expr() }

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table  string // "" when unqualified
	Column string
}

// Literal is a constant value.
type Literal struct {
	Value rel.Value
}

// ValueParam is the value parameter ?N, a literal supplied by each
// execution of a prepared statement.
type ValueParam struct {
	N int
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Compare is "left op right".
type Compare struct {
	Op    CmpOp
	Left  Expr
	Right Expr
}

// And is a conjunction.
type And struct{ Left, Right Expr }

// Or is a disjunction.
type Or struct{ Left, Right Expr }

// Not is a negation.
type Not struct{ Inner Expr }

func (ColRef) expr()     {}
func (Literal) expr()    {}
func (ValueParam) expr() {}
func (Compare) expr()    {}
func (And) expr()        {}
func (Or) expr()         {}
func (Not) expr()        {}

// String renders a column reference.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// FormatExpr renders an expression back to SQL (tests, diagnostics and
// the code generator's golden files use this).
func FormatExpr(e Expr) string {
	var b strings.Builder
	formatExpr(&b, e)
	return b.String()
}

func formatExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case ColRef:
		b.WriteString(v.String())
	case Literal:
		b.WriteString(v.Value.SQL())
	case ValueParam:
		b.WriteString("?" + strconv.Itoa(v.N))
	case Compare:
		formatExpr(b, v.Left)
		b.WriteByte(' ')
		b.WriteString(v.Op.String())
		b.WriteByte(' ')
		formatExpr(b, v.Right)
	case And:
		b.WriteByte('(')
		formatExpr(b, v.Left)
		b.WriteString(" AND ")
		formatExpr(b, v.Right)
		b.WriteByte(')')
	case Or:
		b.WriteByte('(')
		formatExpr(b, v.Left)
		b.WriteString(" OR ")
		formatExpr(b, v.Right)
		b.WriteByte(')')
	case Not:
		b.WriteString("NOT (")
		formatExpr(b, v.Inner)
		b.WriteByte(')')
	}
}
