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
