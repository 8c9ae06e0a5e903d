package rel

import (
	"bytes"
	"slices"
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
// that lets a stored record stand in for its tuple's key (the
// executor's operators pass records, not tuples). The seed corpus under testdata/fuzz holds the
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
// and decodes them one by one through DecodeTuple, and together through
// a BlockDecoder: into a slab sized by Begin's row count alone, then
// into one sized by the records too, after which the decoder decodes
// them once more. Each block has exactly the rows DecodeTuple returns,
// it fails exactly when one of the records does, it never panics, and
// each row's capacity is its length, so appending to one row cannot
// overwrite the next; FinishLast hands the block its character buffer,
// and the decoder's next block does not write over the last one's
// characters.
func FuzzDecodeBlock(f *testing.F) {
	two := append(Tuple{NewInt(-5), NewString("hello")}.Encode(nil), Tuple{NewInt(7), NewString("")}.Encode(nil)...)
	f.Add(uint8(2), two, []byte{14, 9})
	f.Add(uint8(3), Tuple{NewString("ab"), NewString("c")}.Encode(nil), []byte{5, 0, 0})
	f.Add(uint8(5), []byte{}, []byte{0, 0, 0})
	f.Add(uint8(0), []byte{1, 'a', 1, 'b'}, []byte{2, 2})
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

		size := 0
		for _, rec := range recs {
			size += len(rec)
		}
		dec := NewBlockDecoder(schema)
		decode := func(recs [][]byte, begin func(), finish func() Block) (Block, error) {
			begin()
			for _, rec := range recs {
				if err := dec.Add(rec); err != nil {
					return Block{}, err
				}
			}
			return finish(), nil
		}
		unsized, err := decode(recs, func() { dec.Begin(len(recs), 0) }, dec.FinishLast)
		for pass, b := range []Block{unsized, {}} {
			if pass == 1 {
				// A block handed its character buffer, then the decoder's
				// next block — the records in reverse, other characters
				// where there are several — which must leave it as it was.
				b, err = decode(recs, func() { dec.Begin(len(recs), size) }, dec.FinishLast)
				if err == nil {
					rev := slices.Clone(recs)
					slices.Reverse(rev)
					_, _ = decode(rev, func() { dec.Begin(len(recs), size) }, dec.FinishLast)
				}
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

// FuzzRecordSpans feeds Spans untrusted bytes under each schema of
// fuzzSchemas. It never panics; it accepts exactly what DecodeTuple
// accepts; and what it accepts it cuts into columns that, back to back,
// are the record, each column decoding alone — as the record of its
// column's one-column schema — to DecodeTuple's value for it. Two
// records' columns compare (CompareSpans, and CompareSpan against the
// decoded value) as Compare orders the values, and are equal bytes
// exactly when the values are equal.
func FuzzRecordSpans(f *testing.F) {
	f.Add(uint8(2), Tuple{NewInt(-5), NewString("hello")}.Encode(nil), Tuple{NewInt(7), NewString("help")}.Encode(nil))
	f.Add(uint8(4), Tuple{NewString(""), NewInt(1 << 40), NewString("x")}.Encode(nil), Tuple{NewString("a"), NewInt(-1), NewString("x")}.Encode(nil))
	f.Add(uint8(1), []byte{0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(0), []byte{0x80, 0x01, 'x'}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'})
	f.Add(uint8(5), []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, which uint8, a, b []byte) {
		schema := fuzzSchemas[int(which)%len(fuzzSchemas)]
		var sa, sb Spans
		ta, errA := DecodeTuple(a, schema)
		if err := sa.Read(a, schema); (err != nil) != (errA != nil) {
			t.Fatalf("Spans.Read(%x): %v, DecodeTuple: %v under %v", a, err, errA, schema)
		}
		tb, errB := DecodeTuple(b, schema)
		if err := sb.Read(b, schema); (err != nil) != (errB != nil) {
			t.Fatalf("Spans.Read(%x): %v, DecodeTuple: %v under %v", b, err, errB, schema)
		}
		if errA != nil || errB != nil {
			return
		}
		var joined []byte
		for i := range schema.Len() {
			joined = append(joined, sa.Col(i)...)
			col := schema.Project([]int{i})
			v, err := DecodeTuple(sa.Col(i), col)
			if err != nil || v[0] != ta[i] {
				t.Fatalf("column %d of %x decodes alone to %v (%v), in the record to %v", i, a, v, err, ta[i])
			}
			ty := schema.Col(i).Type
			want := Compare(ta[i], tb[i])
			if got := CompareSpans(sa.Col(i), sb.Col(i), ty); got != want {
				t.Fatalf("CompareSpans(%x, %x) = %d, Compare(%v, %v) = %d", sa.Col(i), sb.Col(i), got, ta[i], tb[i], want)
			}
			if got := CompareSpan(sa.Col(i), ty, tb[i]); got != want {
				t.Fatalf("CompareSpan(%x, %v) = %d, want %d", sa.Col(i), tb[i], got, want)
			}
			if eq := bytes.Equal(sa.Col(i), sb.Col(i)); eq != (want == 0) {
				t.Fatalf("columns %x and %x: bytes equal %v, values %v and %v", sa.Col(i), sb.Col(i), eq, ta[i], tb[i])
			}
		}
		if !bytes.Equal(joined, a) || !bytes.Equal(sa.Record(), a) {
			t.Fatalf("columns of %x back to back: %x", a, joined)
		}
		ords := []int{}
		for i := schema.Len() - 1; i >= 0; i-- {
			ords = append(ords, i)
		}
		if got, want := sa.AppendCols(nil, ords), ta.AppendKey(nil, ords); !bytes.Equal(got, want) {
			t.Fatalf("AppendCols(%v) = %x, AppendKey %x", ords, got, want)
		}
	})
}
