package wire

import (
	"bytes"
	"runtime"
	"strings"
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

// A roundTrip decodes one opcode's payload and re-encodes what it
// decoded.
type roundTrip func([]byte) ([]byte, error)

// requestCodecs and replyCodecs have an entry for every opcode of their
// const block, nil for one that carries no payload; TestOpcodeTables
// holds them to that.
var requestCodecs = map[MsgType]roundTrip{
	MsgPing:    nil,
	MsgLoad:    func(p []byte) ([]byte, error) { m, err := DecodeLoad(p); return m.Encode(), err },
	MsgQuery:   func(p []byte) ([]byte, error) { m, err := DecodeQuery(p); return m.Encode(), err },
	MsgPrepare: func(p []byte) ([]byte, error) { m, err := DecodePrepare(p); return m.Encode(), err },
	MsgExecP:   func(p []byte) ([]byte, error) { m, err := DecodeExecP(p); return m.Encode(), err },
	MsgRetract: func(p []byte) ([]byte, error) { m, err := DecodeRetract(p); return m.Encode(), err },
	MsgStats:   nil,
	MsgSlowlog: nil,
	MsgViews:   nil,
}

var replyCodecs = map[MsgType]roundTrip{
	MsgPong:  nil,
	MsgOK:    nil,
	MsgError: func(p []byte) ([]byte, error) { m, err := DecodeError(p); return m.Encode(), err },
	MsgResult: func(p []byte) ([]byte, error) {
		m, err := DecodeResult(p)
		if err != nil {
			return nil, err
		}
		return m.Encode(), nil
	},
	MsgPrepared:     func(p []byte) ([]byte, error) { m, err := DecodePrepared(p); return m.Encode(), err },
	MsgRetracted:    func(p []byte) ([]byte, error) { m, err := DecodeRetracted(p); return m.Encode(), err },
	MsgStatsReply:   func(p []byte) ([]byte, error) { m, err := DecodeMetrics(p); return m.Encode(), err },
	MsgSlowlogReply: func(p []byte) ([]byte, error) { m, err := DecodeSlowlog(p); return m.Encode(), err },
	MsgViewsReply:   func(p []byte) ([]byte, error) { m, err := DecodeViews(p); return m.Encode(), err },
}

// TestOpcodeTables: the codec tables cover exactly the opcodes below
// each const block's sentinel, and each of those has a String name, so
// an opcode appended without its codec fails here.
func TestOpcodeTables(t *testing.T) {
	for _, b := range []struct {
		first, end MsgType
		codecs     map[MsgType]roundTrip
	}{{MsgPing, msgRequestEnd, requestCodecs}, {MsgPong, msgReplyEnd, replyCodecs}} {
		if len(b.codecs) != int(b.end-b.first) {
			t.Errorf("%v..%v: %d codec table entries for %d opcodes", b.first, b.end-1, len(b.codecs), b.end-b.first)
		}
		for op := b.first; op < b.end; op++ {
			if _, ok := b.codecs[op]; !ok {
				t.Errorf("opcode %v has no codec table entry", op)
			}
			if strings.HasPrefix(op.String(), "MsgType(") {
				t.Errorf("opcode %d has no String name", op)
			}
		}
	}
}

// fuzzCodecs feeds a codec table untrusted bytes: the first byte is the
// message type (one with no payload codec is skipped) and the rest is
// the payload. No input panics a decoder, and whatever one accepts
// re-encodes to the same bytes — so a decoder accepts no trailing byte,
// unknown option bit, zero query ID or flag value an encoder does not
// write.
func fuzzCodecs(f *testing.F, codecs map[MsgType]roundTrip) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || codecs[MsgType(data[0])] == nil {
			return
		}
		payload := data[1:]
		p := bytes.Clone(payload)
		enc, err := codecs[MsgType(data[0])](p)
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

// FuzzDecodeRequest fuzzes the request decoders (LOAD, QUERY, PREPARE,
// EXECP, RETRACT). The seed corpus under testdata/fuzz has one payload
// per request form.
func FuzzDecodeRequest(f *testing.F) { fuzzCodecs(f, requestCodecs) }

// FuzzDecodeReply fuzzes the reply decoders (ERROR, RESULT, PREPARED,
// RETRACTED, STATSREPLY, SLOWLOGREPLY, VIEWSREPLY). The seed corpus
// under testdata/fuzz has one payload per reply form other than
// RESULT's, which FuzzDecodeResult seeds; the STATSREPLY seed is a
// served registry snapshot, engine collectors and histograms included.
func FuzzDecodeReply(f *testing.F) { fuzzCodecs(f, replyCodecs) }
