package rel

import (
	"bytes"
	"testing"
)

// fuzzSchemas are the column-type vectors FuzzDecodeTuple decodes
// against; the fuzzer picks one by index.
var fuzzSchemas = []*Schema{
	MustSchema(Column{"a", TypeString}),
	MustSchema(Column{"a", TypeInt}),
	MustSchema(Column{"a", TypeInt}, Column{"b", TypeString}),
	MustSchema(Column{"a", TypeString}, Column{"b", TypeString}),
	MustSchema(Column{"a", TypeString}, Column{"b", TypeInt}, Column{"c", TypeString}),
	MustSchema(),
}

// FuzzDecodeTuple feeds DecodeTuple untrusted bytes: it never panics,
// and whatever it accepts re-encodes to the same bytes — the property
// that lets a stored record stand in for its tuple's key
// (exec.RecordSource). The seed corpus under testdata/fuzz holds the
// crasher this target was written for (a string length ≥ 2^63).
func FuzzDecodeTuple(f *testing.F) {
	f.Add(uint8(2), Tuple{NewInt(-5), NewString("hello")}.Encode(nil))
	f.Add(uint8(4), Tuple{NewString(""), NewInt(1 << 40), NewString("x")}.Encode(nil))
	f.Add(uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		schema := fuzzSchemas[int(which)%len(fuzzSchemas)]
		tu, err := DecodeTuple(data, schema)
		if err != nil {
			return
		}
		if len(tu) != schema.Len() {
			t.Fatalf("decoded %d columns against %v", len(tu), schema)
		}
		for i, v := range tu {
			if v.Kind != schema.Col(i).Type {
				t.Fatalf("column %d decoded as %v against %v", i, v.Kind, schema)
			}
		}
		if enc := tu.Encode(nil); !bytes.Equal(enc, data) {
			t.Fatalf("Encode(Decode(%x)) = %x under %v", data, enc, schema)
		}
	})
}

// FuzzDecodeBlock cuts the input into records at fuzzer-chosen lengths
// and decodes them twice: one by one through DecodeTuple, and together
// through a BlockDecoder, in a fresh slab and then over that block's
// slab. The block has exactly the rows DecodeTuple returns, it fails
// exactly when one of the records does, it never panics, and each row's
// capacity is its length, so appending to one row cannot overwrite the
// next.
func FuzzDecodeBlock(f *testing.F) {
	two := append(Tuple{NewInt(-5), NewString("hello")}.Encode(nil), Tuple{NewInt(7), NewString("")}.Encode(nil)...)
	f.Add(uint8(2), two, []byte{14, 9})
	f.Add(uint8(3), Tuple{NewString("ab"), NewString("c")}.Encode(nil), []byte{5, 0, 0})
	f.Add(uint8(5), []byte{}, []byte{0, 0, 0})
	f.Add(uint8(0), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'}, []byte{11})
	f.Fuzz(func(t *testing.T, which uint8, data, cuts []byte) {
		schema := fuzzSchemas[int(which)%len(fuzzSchemas)]
		// Record i is the next cuts[i] bytes (what is left, if fewer); the
		// bytes after the last cut are not a record.
		var recs [][]byte
		for _, c := range cuts {
			n := min(int(c), len(data))
			recs = append(recs, data[:n])
			data = data[n:]
		}
		var want []Tuple
		var wantErr error
		for _, rec := range recs {
			tu, err := DecodeTuple(rec, schema)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, tu)
		}

		dec := NewBlockDecoder(schema)
		decode := func(begin func()) (Block, error) {
			begin()
			for _, rec := range recs {
				if err := dec.Add(rec); err != nil {
					return Block{}, err
				}
			}
			return dec.Finish(), nil
		}
		fresh, err := decode(func() { dec.Begin(len(recs), len(data)) })
		for pass, b := range []Block{fresh, {}} {
			if pass == 1 {
				// The same records over the first block's slab.
				b, err = decode(func() { dec.BeginOver(fresh) })
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("pass %d: block error %v, DecodeTuple error %v", pass, err, wantErr)
			}
			if err != nil {
				continue
			}
			if b.Len() != len(want) {
				t.Fatalf("pass %d: block of %d rows from %d records", pass, b.Len(), len(want))
			}
			for i, tu := range want {
				row := b.Row(i)
				if cap(row) != len(row) {
					t.Fatalf("pass %d: row %d has len %d, cap %d", pass, i, len(row), cap(row))
				}
				if len(row) != len(tu) {
					t.Fatalf("pass %d: row %d = %v, DecodeTuple %v", pass, i, row, tu)
				}
				for c := range tu {
					// Struct equality: a string value's Int is zero again.
					if row[c] != tu[c] {
						t.Fatalf("pass %d: row %d = %#v, DecodeTuple %#v", pass, i, row, tu)
					}
				}
			}
			if b.Len() > 1 && schema.Len() > 0 {
				first, next := b.Row(0), b.Row(1)[0]
				_ = append(first, NewInt(99))
				if b.Row(1)[0] != next {
					t.Fatalf("pass %d: appending to row 0 overwrote row 1", pass)
				}
			}
		}
	})
}
