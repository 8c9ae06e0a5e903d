package rel

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Tuple is one row: a slice of values. Tuples are positional; names live
// in the schema.
type Tuple []Value

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// CompareTuples orders tuples lexicographically; shorter tuples sort
// before longer ones with an equal prefix.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// AppendKey appends the tuple's key over the columns at ords (all
// columns when ords is nil) to buf and returns the extended buffer. The
// key is the storage encoding itself: TypeInt → 8-byte big-endian
// int64, TypeString → uvarint length + bytes. It is injective per
// column-type vector — two tuples whose key columns have the same
// types have equal keys exactly when the columns are equal — which is
// all its consumers need: the planner rejects cross-type comparisons
// and set operations require type-compatible inputs. Across type
// vectors keys may collide (an 8-byte string and an int), so a key is
// never compared with one built under a different schema.
//
// Hashing consumers keep one scratch buffer and probe with
// m[string(scratch)], which does not allocate; only an insert does.
func (t Tuple) AppendKey(buf []byte, ords []int) []byte {
	if ords == nil {
		for _, v := range t {
			buf = v.appendKey(buf)
		}
		return buf
	}
	for _, o := range ords {
		buf = t[o].appendKey(buf)
	}
	return buf
}

func (v Value) appendKey(buf []byte) []byte {
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

// Key returns AppendKey over all columns as a string, for callers that
// keep the key (a map insert). Probing callers use AppendKey.
func (t Tuple) Key() string {
	var a [64]byte
	return string(t.AppendKey(a[:0], nil))
}

// Encode serializes the tuple into buf (appending) and returns the
// extended buffer: the record the slotted-page heap files store, and —
// being AppendKey over all columns — the tuple's key. DecodeTuple
// accepts exactly the bytes Encode writes, so a stored record can stand
// in for the key of the tuple it holds without being decoded.
func (t Tuple) Encode(buf []byte) []byte { return t.AppendKey(buf, nil) }

// DecodeTuple deserializes a tuple of the given schema from data. The
// bytes may be untrusted: anything Encode would not have written for
// this schema is an error, never a panic.
func DecodeTuple(data []byte, schema *Schema) (Tuple, error) {
	t := make(Tuple, schema.Len())
	off := 0
	for i := 0; i < schema.Len(); i++ {
		switch schema.Col(i).Type {
		case TypeInt:
			if off+8 > len(data) {
				return nil, fmt.Errorf("rel: short tuple: int column %d", i)
			}
			t[i] = NewInt(int64(binary.BigEndian.Uint64(data[off : off+8])))
			off += 8
		case TypeString:
			n, sz := binary.Uvarint(data[off:])
			// A multi-byte uvarint ending in a zero group is a longer
			// spelling of a smaller number; Encode never writes one.
			if sz <= 0 || (sz > 1 && data[off+sz-1] == 0) {
				return nil, fmt.Errorf("rel: bad string length at column %d", i)
			}
			off += sz
			if n > uint64(len(data)-off) {
				return nil, fmt.Errorf("rel: short tuple: string column %d", i)
			}
			t[i] = NewString(string(data[off : off+int(n)]))
			off += int(n)
		default:
			return nil, fmt.Errorf("rel: cannot decode unknown-typed column %d", i)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("rel: %d trailing bytes after tuple", len(data)-off)
	}
	return t, nil
}
