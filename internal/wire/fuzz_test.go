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

// FuzzDecodeRequest feeds the request decoders untrusted bytes: the
// first byte is the message type (LOAD, QUERY, PREPARE, EXECP or
// RETRACT; any other type is skipped) and the rest is the payload. No
// input panics a decoder, and whatever one accepts re-encodes to the
// same bytes — so a decoder accepts no trailing byte, unknown option bit
// or zero query ID. The seed corpus under testdata/fuzz has one payload
// per request form.
func FuzzDecodeRequest(f *testing.F) {
	decoders := map[MsgType]func([]byte) ([]byte, error){
		MsgLoad:    func(p []byte) ([]byte, error) { m, err := DecodeLoad(p); return m.Encode(), err },
		MsgQuery:   func(p []byte) ([]byte, error) { m, err := DecodeQuery(p); return m.Encode(), err },
		MsgPrepare: func(p []byte) ([]byte, error) { m, err := DecodePrepare(p); return m.Encode(), err },
		MsgExecP:   func(p []byte) ([]byte, error) { m, err := DecodeExecP(p); return m.Encode(), err },
		MsgRetract: func(p []byte) ([]byte, error) { m, err := DecodeRetract(p); return m.Encode(), err },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || decoders[MsgType(data[0])] == nil {
			return
		}
		payload := data[1:]
		p := bytes.Clone(payload)
		enc, err := decoders[MsgType(data[0])](p)
		if err != nil {
			return
		}
		for i := range p {
			p[i] = ^p[i]
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("%s: re-encoding %x gave %x", MsgType(data[0]), payload, enc)
		}
	})
}

// FuzzDecodeReply feeds the reply decoders other than RESULT's untrusted
// bytes: the first byte is the message type (PREPARED, ERROR, RETRACTED,
// VIEWSREPLY, SLOWLOGREPLY or STATSREPLY; any other type is skipped)
// and the rest is the payload. No input panics a decoder, and whatever
// one accepts re-encodes to the same bytes — so a decoder accepts no
// trailing byte and no flag value an encoder does not write. The seed
// corpus under testdata/fuzz has one payload per reply form.
func FuzzDecodeReply(f *testing.F) {
	decoders := map[MsgType]func([]byte) ([]byte, error){
		MsgPrepared:     func(p []byte) ([]byte, error) { m, err := DecodePrepared(p); return m.Encode(), err },
		MsgError:        func(p []byte) ([]byte, error) { m, err := DecodeError(p); return m.Encode(), err },
		MsgRetracted:    func(p []byte) ([]byte, error) { m, err := DecodeRetracted(p); return m.Encode(), err },
		MsgViewsReply:   func(p []byte) ([]byte, error) { m, err := DecodeViews(p); return m.Encode(), err },
		MsgSlowlogReply: func(p []byte) ([]byte, error) { m, err := DecodeSlowlog(p); return m.Encode(), err },
		MsgStatsReply:   func(p []byte) ([]byte, error) { m, err := DecodeServerStats(p); return m.Encode(), err },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || decoders[MsgType(data[0])] == nil {
			return
		}
		payload := data[1:]
		p := bytes.Clone(payload)
		enc, err := decoders[MsgType(data[0])](p)
		if err != nil {
			return
		}
		for i := range p {
			p[i] = ^p[i]
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("%s: re-encoding %x gave %x", MsgType(data[0]), payload, enc)
		}
	})
}
