package rel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"unsafe"
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

// Clone returns a copy of the tuple that owns its memory: the values
// and the bytes of its strings are copied, so the copy keeps nothing
// else alive (see OwnRows).
func (t Tuple) Clone() Tuple {
	rows := [1]Tuple{t}
	OwnRows(rows[:])
	return rows[0]
}

// OwnRows replaces every row by a copy, the copies sharing one value
// slab and one string for their character data, both exactly sized.
// Tuples an operator emits are views into decoded blocks and output
// slabs (see Block); whoever keeps rows past their statement calls this
// first, so the rows pin themselves and nothing larger. Nil rows stay
// nil.
func OwnRows(rows []Tuple) {
	nvals, nchars := 0, 0
	for _, t := range rows {
		nvals += len(t)
		for _, v := range t {
			nchars += len(v.Str)
		}
	}
	vals := make([]Value, 0, nvals)
	var b strings.Builder
	b.Grow(nchars)
	for _, t := range rows {
		for _, v := range t {
			b.WriteString(v.Str)
		}
	}
	chars := b.String()
	for i, t := range rows {
		if t == nil {
			continue
		}
		at := len(vals)
		for _, v := range t {
			if n := len(v.Str); n > 0 {
				v.Str, chars = chars[:n], chars[n:]
			}
			vals = append(vals, v)
		}
		rows[i] = vals[at:len(vals):len(vals)]
	}
}

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
// this schema is an error, never a panic. The tuple owns its memory
// (its strings share one allocation). It is the single-record entry
// point; a scan decodes a page at a time through BlockDecoder.
func DecodeTuple(data []byte, schema *Schema) (Tuple, error) {
	t := make(Tuple, schema.Len())
	var buf [64]byte
	chars, err := decodeRecord(t, data, schema, buf[:0])
	if err != nil {
		return nil, err
	}
	if len(chars) > 0 {
		s := string(chars)
		for i := range t {
			t[i].bindString(s)
		}
	}
	return t, nil
}

// decodeRecord decodes one record into dst, which has schema.Len()
// elements, appending the record's character data to chars. A string
// value is left unbound: Int holds where its bytes lie in chars (offset
// in the high half, length in the low) until bindString points Str at
// them.
func decodeRecord(dst []Value, data []byte, schema *Schema, chars []byte) ([]byte, error) {
	off := 0
	for i, col := range schema.cols {
		switch col.Type {
		case TypeInt:
			if off+8 > len(data) {
				return chars, fmt.Errorf("rel: short tuple: int column %d", i)
			}
			dst[i] = NewInt(int64(binary.BigEndian.Uint64(data[off : off+8])))
			off += 8
		case TypeString:
			n, sz := binary.Uvarint(data[off:])
			// A multi-byte uvarint ending in a zero group is a longer
			// spelling of a smaller number; Encode never writes one.
			if sz <= 0 || (sz > 1 && data[off+sz-1] == 0) {
				return chars, fmt.Errorf("rel: bad string length at column %d", i)
			}
			off += sz
			if n > uint64(len(data)-off) {
				return chars, fmt.Errorf("rel: short tuple: string column %d", i)
			}
			dst[i] = Value{Kind: TypeString, Int: int64(len(chars))<<32 | int64(n)}
			chars = append(chars, data[off:off+int(n)]...)
			off += int(n)
		default:
			return chars, fmt.Errorf("rel: cannot decode unknown-typed column %d", i)
		}
	}
	if off != len(data) {
		return chars, fmt.Errorf("rel: %d trailing bytes after tuple", len(data)-off)
	}
	return chars, nil
}

// bindString completes a string value decodeRecord left unbound: s is
// the character data its span refers to.
func (v *Value) bindString(s string) {
	if v.Kind == TypeString {
		at, n := v.Int>>32, v.Int&(1<<32-1)
		v.Str, v.Int = s[at:at+n], 0
	}
}

// Block is the rows of one heap page — or of one index probe — decoded
// together: one value slab and one string holding all their character
// data, instead of a slice per row and a string per value. Row returns
// views into the slab; a view's capacity is its length, so appending to
// one row never reaches the next. A row kept beyond its statement keeps
// the whole block alive, and a kept operator tree decodes its next
// execution's rows over its blocks (BeginReusing): keepers copy
// (Tuple.Clone, OwnRows).
type Block struct {
	vals  []Value
	width int32
	rows  int32
}

// Len returns the number of rows.
func (b Block) Len() int { return int(b.rows) }

// Row returns the i-th row.
func (b Block) Row(i int) Tuple {
	at, w := i*int(b.width), int(b.width)
	return b.vals[at : at+w : at+w]
}

// Cap returns how many values the block's slab holds, used or not.
func (b Block) Cap() int { return cap(b.vals) }

// ValueSize is the size of a Value in bytes, the unit of a slab.
const ValueSize = int(unsafe.Sizeof(Value{}))

// Outgrown reports whether a buffer kept for reuse from one execution
// of an operator tree to the next, of capacity bytes, is far larger
// than what the execution that last filled it used, used bytes: more
// than four times that plus 1 KiB. Its keeper then releases it instead
// of keeping it (DESIGN.md §3, "Tuple memory in the executor").
func Outgrown(capacity, used int) bool { return capacity > 4*used+1024 }

// BlockDecoder decodes the records of one schema into Blocks. Begin
// (or BeginOver, or BeginReusing), then Add per record — typically
// under the pin of the page holding it; the record is not retained —
// then Finish. A decoder is reused from block to block and keeps its
// character scratch buffer.
type BlockDecoder struct {
	schema  *Schema
	vals    []Value
	chars   []byte // scratch: the character data of the block being built
	rows    int32
	strings bool // the schema has string columns
}

// NewBlockDecoder returns a decoder for records of the schema.
func NewBlockDecoder(schema *Schema) BlockDecoder {
	d := BlockDecoder{schema: schema}
	for _, c := range schema.cols {
		d.strings = d.strings || c.Type == TypeString
	}
	return d
}

// Schema returns the schema the decoder decodes.
func (d *BlockDecoder) Schema() *Schema { return d.schema }

// Begin starts a block in a fresh slab sized for rows rows. size is the
// total length of the records to come when the caller knows it (it
// bounds their character data and sizes the scratch buffer), else 0.
func (d *BlockDecoder) Begin(rows, size int) {
	d.reserve(size)
	d.vals, d.rows = make([]Value, 0, rows*d.schema.Len()), 0
}

// BeginOver starts a block in the slab of old, a block of this schema
// whose rows nobody reads any more. (Strings are never overwritten;
// each block has its own.)
func (d *BlockDecoder) BeginOver(old Block) {
	d.vals, d.rows, d.chars = old.vals[:0], 0, d.chars[:0]
}

// BeginReusing starts a block of rows rows whose records are size bytes
// long: over old (BeginOver) when old's slab holds them and is not
// Outgrown by them, else in a fresh slab of exactly their size (Begin)
// rather than growing old's row by row.
func (d *BlockDecoder) BeginReusing(old Block, rows, size int) {
	need := rows * d.schema.Len()
	if need > cap(old.vals) || Outgrown(cap(old.vals)*ValueSize, need*ValueSize) {
		d.Begin(rows, size)
		return
	}
	d.BeginOver(old)
	d.reserve(size)
}

// reserve empties the character scratch, making room for size bytes.
func (d *BlockDecoder) reserve(size int) {
	if d.strings && cap(d.chars) < size {
		d.chars = make([]byte, 0, size)
	}
	d.chars = d.chars[:0]
}

// Grow makes room in the block being built for size more bytes of
// records, as Begin's size does for the first: a block of many pages
// grows its character scratch a page at a time.
func (d *BlockDecoder) Grow(size int) {
	if d.strings {
		d.chars = slices.Grow(d.chars, size)
	}
}

// Add decodes one record as the block's next row, under DecodeTuple's
// contract for untrusted bytes. After an error the block is abandoned.
func (d *BlockDecoder) Add(rec []byte) error {
	at, w := len(d.vals), d.schema.Len()
	if at+w <= cap(d.vals) {
		d.vals = d.vals[:at+w]
	} else {
		d.vals = append(d.vals, make([]Value, w)...)
	}
	var err error
	d.chars, err = decodeRecord(d.vals[at:], rec, d.schema, d.chars)
	d.rows++
	return err
}

// Rows returns the number of rows added since Begin.
func (d *BlockDecoder) Rows() int { return int(d.rows) }

// Finish returns the block of the rows added since Begin.
func (d *BlockDecoder) Finish() Block {
	b := Block{vals: d.vals, width: int32(d.schema.Len()), rows: d.rows}
	if len(d.chars) > 0 {
		s := string(d.chars)
		for i := range b.vals {
			b.vals[i].bindString(s)
		}
	}
	d.vals = nil
	return b
}

// AppendRows appends rows to buf as one encoded block, the form rows
// travel in off the heap page (a RESULT frame carries one): the column
// count and a type byte per column, taken from the first row; the row
// count; then each row's record (Encode) behind its uvarint length. Every
// row must have the first row's types, as the rows of one relation do.
func AppendRows(buf []byte, rows []Tuple) []byte {
	var first Tuple
	if len(rows) > 0 {
		first = rows[0]
	}
	buf = binary.AppendUvarint(buf, uint64(len(first)))
	for _, v := range first {
		buf = append(buf, byte(v.Kind))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, t := range rows {
		// Encode behind a one-byte length, and move the record up when,
		// at 128 bytes or more, its length takes more.
		at := len(buf)
		buf = t.Encode(append(buf, 0))
		n := len(buf) - at - 1
		var l [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(l[:], uint64(n))
		if k > 1 {
			buf = append(buf, l[1:k]...)
			copy(buf[at+k:], buf[at+1:at+1+n])
		}
		copy(buf[at:], l[:k])
	}
	return buf
}

// DecodeRows decodes the block AppendRows wrote at the front of data
// through one BlockDecoder. It returns the rows — views into one value
// slab and one string, aliasing nothing of data — and the bytes after the
// block. The bytes may be untrusted: anything AppendRows would not have
// written is an error, and a header claiming more rows × columns than
// data can hold is refused before the slab is allocated, since a record
// takes at least its length byte and a byte per column.
func DecodeRows(data []byte) ([]Tuple, []byte, error) {
	ncols, data, err := readUvarint(data)
	if err != nil || ncols > uint64(len(data)) {
		return nil, nil, fmt.Errorf("rel: bad column count in row block")
	}
	schema := &Schema{cols: make([]Column, ncols)}
	for i, t := range data[:ncols] {
		if Type(t) != TypeInt && Type(t) != TypeString {
			return nil, nil, fmt.Errorf("rel: unknown type %d for column %d of row block", t, i)
		}
		schema.cols[i].Type = Type(t)
	}
	nrows, data, err := readUvarint(data[ncols:])
	// AppendRows takes the types from the first row: no rows, no columns.
	if err != nil || (nrows == 0 && ncols != 0) || nrows > uint64(len(data))/(ncols+1) {
		return nil, nil, fmt.Errorf("rel: bad row count in row block of %d columns", ncols)
	}
	dec := NewBlockDecoder(schema)
	dec.Begin(int(nrows), len(data))
	for i := uint64(0); i < nrows; i++ {
		n, rest, err := readUvarint(data)
		if err != nil || n > uint64(len(rest)) {
			return nil, nil, fmt.Errorf("rel: bad length of record %d in row block", i)
		}
		if err := dec.Add(rest[:n]); err != nil {
			return nil, nil, err
		}
		data = rest[n:]
	}
	b := dec.Finish()
	rows := make([]Tuple, b.Len())
	for i := range rows {
		rows[i] = b.Row(i)
	}
	return rows, data, nil
}

// readUvarint reads a uvarint as binary.AppendUvarint writes it: a
// multi-byte uvarint ending in a zero group is a longer spelling of a
// smaller number, which no encoder writes.
func readUvarint(data []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || (sz > 1 && data[sz-1] == 0) {
		return 0, nil, fmt.Errorf("rel: bad uvarint")
	}
	return n, data[sz:], nil
}
