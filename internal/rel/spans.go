package rel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
)

// Spans cuts a stored record into its columns without decoding them:
// column i is the bytes its value is encoded in (Encode), an int's 8
// bytes or a string's uvarint length and characters. The encoding has
// no header and each column delimits itself, so a record is its spans
// back to back, the record of a join is the left record followed by the
// right, and two spans of one column type are equal exactly when their
// values are. The executor reads rows this way (DESIGN.md §3); a Spans
// is one operator's scratch, reused from record to record.
type Spans struct {
	rec    []byte
	schema *Schema
	ints   bool    // every column is an int: column i is rec[8i:8i+8]
	ends   []int32 // otherwise column i ends at ends[i]
}

// Read cuts rec, a record of schema, into its columns. The bytes may
// be untrusted: anything Encode would not have written for the schema
// is an error, as in DecodeTuple. The spans alias rec.
func (s *Spans) Read(rec []byte, schema *Schema) error {
	if s.schema != schema {
		s.schema, s.ints = schema, true
		for _, c := range schema.cols {
			s.ints = s.ints && c.Type == TypeInt
		}
	}
	s.rec = rec
	if s.ints {
		if len(rec) != 8*len(schema.cols) {
			return fmt.Errorf("rel: record of %d bytes under %d int columns", len(rec), len(schema.cols))
		}
		return nil
	}
	s.ends = s.ends[:0]
	off := 0
	for i, col := range schema.cols {
		n, err := spanLen(rec[off:], col.Type)
		if err != nil {
			return fmt.Errorf("rel: column %d: %w", i, err)
		}
		off += n
		s.ends = append(s.ends, int32(off))
	}
	if off != len(rec) {
		return fmt.Errorf("rel: %d trailing bytes after tuple", len(rec)-off)
	}
	return nil
}

// spanLen returns the length of the column of type t at the front of
// data, under DecodeTuple's contract for untrusted bytes.
func spanLen(data []byte, t Type) (int, error) {
	switch t {
	case TypeInt:
		if len(data) < 8 {
			return 0, fmt.Errorf("short int")
		}
		return 8, nil
	case TypeString:
		n, sz := binary.Uvarint(data)
		// A multi-byte uvarint ending in a zero group is a longer
		// spelling of a smaller number; Encode never writes one.
		if sz <= 0 || (sz > 1 && data[sz-1] == 0) {
			return 0, fmt.Errorf("bad string length")
		}
		if n > uint64(len(data)-sz) {
			return 0, fmt.Errorf("short string")
		}
		return sz + int(n), nil
	}
	return 0, fmt.Errorf("unknown-typed column")
}

// Clear lets go of the record last read, keeping the column scratch: a
// reader kept between passes must not keep a page's bytes alive.
func (s *Spans) Clear() { s.rec = nil }

// Record returns the record last read.
func (s *Spans) Record() []byte { return s.rec }

// Col returns the bytes of column i. Its capacity is its length.
func (s *Spans) Col(i int) []byte {
	if s.ints {
		return s.rec[8*i : 8*i+8 : 8*i+8]
	}
	start := int32(0)
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.rec[start:s.ends[i]:s.ends[i]]
}

// Int returns the value of column i, an int column.
func (s *Spans) Int(i int) int64 { return spanInt(s.Col(i)) }

// Chars returns the characters of column i, a string column: they
// alias the record.
func (s *Spans) Chars(i int) []byte { return spanChars(s.Col(i)) }

// AppendCols appends the columns at ords to buf: the key AppendKey
// writes over ords for the decoded tuple.
func (s *Spans) AppendCols(buf []byte, ords []int) []byte {
	for _, o := range ords {
		buf = append(buf, s.Col(o)...)
	}
	return buf
}

// AppendKey appends the value's storage encoding (see Tuple.AppendKey):
// a column of a record.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.Kind {
	case TypeInt:
		return binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	case TypeString:
		return append(binary.AppendUvarint(buf, uint64(len(v.Str))), v.Str...)
	default:
		// Unknown values are never stored; encode as empty string.
		return binary.AppendUvarint(buf, 0)
	}
}

// CompareSpans orders two columns of type t, read by Spans, as Compare
// orders their values.
func CompareSpans(a, b []byte, t Type) int {
	if t == TypeInt {
		return cmp.Compare(spanInt(a), spanInt(b))
	}
	return bytes.Compare(spanChars(a), spanChars(b))
}

// CompareSpan orders a column of type t, read by Spans, against v, as
// Compare orders the column's value against v.
func CompareSpan(span []byte, t Type, v Value) int {
	switch {
	case t != v.Kind:
		return cmp.Compare(t, v.Kind)
	case t == TypeInt:
		return cmp.Compare(spanInt(span), v.Int)
	}
	// string(...) in a comparison does not allocate.
	switch c := spanChars(span); {
	case string(c) < v.Str:
		return -1
	case string(c) > v.Str:
		return 1
	}
	return 0
}

// spanInt returns the value of an int column.
func spanInt(span []byte) int64 { return int64(binary.BigEndian.Uint64(span)) }

// spanChars returns the characters of a string column.
func spanChars(span []byte) []byte {
	if len(span) > 0 && span[0] < 0x80 {
		return span[1:]
	}
	_, sz := binary.Uvarint(span)
	return span[sz:]
}

// Records is a list of records back to back in one buffer. A statement
// collects what its operator tree emits into one before it writes any
// of it — an INSERT's snapshot of what it reads, a DELETE's victims —
// and a nested-loop join its right input.
type Records struct {
	buf  []byte
	ends []int
}

// Add appends a copy of rec.
func (r *Records) Add(rec []byte) error {
	r.buf = append(r.buf, rec...)
	r.ends = append(r.ends, len(r.buf))
	return nil
}

// Reset empties the list, keeping its memory.
func (r *Records) Reset() { r.buf, r.ends = r.buf[:0], r.ends[:0] }

// Trim releases the list's memory when it is Outgrown by the records
// the list holds: what a keeper of the list retains between uses.
func (r *Records) Trim() {
	if Outgrown(cap(r.buf), len(r.buf)) || Outgrown(8*cap(r.ends), 8*len(r.ends)) {
		*r = Records{}
	}
}

// Each calls fn with every record in order; rec aliases the list.
func (r *Records) Each(fn func(rec []byte) error) error {
	start := 0
	for _, end := range r.ends {
		if err := fn(r.buf[start:end:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}
