package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeResult feeds DecodeResult untrusted bytes. It never panics;
// whatever it accepts re-encodes to the same bytes, with rows that alias
// nothing of the payload; and what it allocates is bounded by the
// payload's length, so a header claiming more rows × columns than the
// bytes can hold fails before the value slab is allocated. The seed
// corpus under testdata/fuzz covers int and string columns, empty and
// two-byte-length strings, zero rows, zero-width rows, a trace and a
// query ID.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := bytes.Clone(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeResult(p)
		runtime.ReadMemStats(&after)
		// Rows cost a 32-byte value per column and a 24-byte slice
		// header, a record at least a byte per column plus its length
		// byte; the character data is copied twice at most.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for i := range p {
			p[i] = ^p[i]
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("Encode(DecodeResult(%x)) = %x", data, enc)
		}
	})
}
