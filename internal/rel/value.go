// Package rel defines the value, tuple and schema layer shared by the
// storage engine, the SQL executor and the knowledge manager.
//
// The testbed's data model is deliberately small — the paper's D/KB uses
// only integer and character-string columns — but the layer is complete:
// typed values with total ordering, schemas with named typed columns, and
// a compact binary tuple encoding used by the slotted-page heap files.
package rel

import (
	"fmt"
	"strconv"
)

// Type identifies a column type. The testbed supports the two types the
// paper's intensional data dictionary records: integer and char.
type Type uint8

const (
	// TypeUnknown is the zero Type; it appears only transiently during
	// type inference, never in a committed schema.
	TypeUnknown Type = iota
	// TypeInt is a 64-bit signed integer column.
	TypeInt
	// TypeString is a variable-length character-string column.
	TypeString
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeString:
		return "CHAR"
	default:
		return "UNKNOWN"
	}
}

// ParseType maps a SQL type name to a Type. It accepts the spellings the
// testbed's SQL subset recognises.
func ParseType(s string) (Type, error) {
	switch s {
	case "INTEGER", "INT", "integer", "int":
		return TypeInt, nil
	case "CHAR", "char", "VARCHAR", "varchar", "STRING", "string":
		return TypeString, nil
	default:
		return TypeUnknown, fmt.Errorf("rel: unknown type %q", s)
	}
}

// Value is a single typed datum. Exactly one of the payload fields is
// meaningful, selected by Kind. Value is a small value type and is passed
// by value throughout the engine.
type Value struct {
	Kind Type
	Int  int64
	Str  string
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: TypeInt, Int: v} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: TypeString, Str: s} }

// String renders the value for display and for rule source round-tripping.
func (v Value) String() string {
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeString:
		return v.Str
	default:
		return "<unknown>"
	}
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	if v.Kind == TypeInt {
		return strconv.FormatInt(v.Int, 10)
	}
	return string(v.AppendSQL(make([]byte, 0, len(v.Str)+2)))
}

// AppendSQL appends the value as SQL renders it to b.
func (v Value) AppendSQL(b []byte) []byte {
	switch v.Kind {
	case TypeInt:
		return strconv.AppendInt(b, v.Int, 10)
	case TypeString:
		b = append(b, '\'')
		for i := 0; i < len(v.Str); i++ {
			if v.Str[i] == '\'' {
				b = append(b, '\'')
			}
			b = append(b, v.Str[i])
		}
		return append(b, '\'')
	default:
		return append(b, "NULL"...)
	}
}

// Compare returns -1, 0 or +1 as a sorts before, equal to, or after b.
// Values of different types order by type tag; the planner never compares
// mixed types for well-typed programs, but indexes need a total order.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case TypeInt:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		default:
			return 0
		}
	case TypeString:
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values are identical in type and payload.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }
