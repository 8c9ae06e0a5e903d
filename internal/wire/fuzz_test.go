package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeResult feeds DecodeResult untrusted bytes. It never panics;
// whatever it accepts re-encodes to the same bytes, with rows that alias
// nothing of the payload; and what it allocates is bounded by the
// payload's length, so a header claiming more rows × columns than the
// bytes can hold fails before the value slab is allocated. The seed
// corpus under testdata/fuzz covers int and string columns, empty and
// two-byte-length strings, zero rows, zero-width rows, a trace, a query
// ID, and a trace chain whose every span claims more children than the
// payload holds.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := bytes.Clone(data)
		var m *Result
		var err error
		decodeBounded(t, len(data), func() { m, err = DecodeResult(p) })
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

// decodeBounded runs decode and fails t if it allocated more than a
// decoder may for n payload bytes. Rows cost a 32-byte value per column
// and a 24-byte slice header, a record at least a byte per column plus
// its length byte, and character data is copied twice at most, so 64
// bytes per payload byte and 64 KiB to spare bound every payload.
func decodeBounded(t *testing.T, n int, decode func()) {
	if grew := allocated(decode); grew > 64*uint64(n)+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", n, grew)
	}
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
// the payload. No input panics a decoder or makes it allocate past
// decodeBounded's bound, and whatever one accepts re-encodes to the same
// bytes — so a decoder accepts no trailing byte, unknown option bit,
// zero query ID or flag value an encoder does not write.
func fuzzCodecs(f *testing.F, codecs map[MsgType]roundTrip) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || codecs[MsgType(data[0])] == nil {
			return
		}
		payload := data[1:]
		p := bytes.Clone(payload)
		var enc []byte
		var err error
		decodeBounded(t, len(payload), func() { enc, err = codecs[MsgType(data[0])](p) })
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

// FuzzDecodeRequest fuzzes the request decoders (LOAD, QUERY, RETRACT).
// The seed corpus under testdata/fuzz has one payload per request form.
func FuzzDecodeRequest(f *testing.F) { fuzzCodecs(f, requestCodecs) }

// FuzzDecodeReply fuzzes the reply decoders (ERROR, RESULT, RETRACTED,
// STATSREPLY, SLOWLOGREPLY, VIEWSREPLY). The seed corpus under
// testdata/fuzz has one payload per reply form other than RESULT's,
// which FuzzDecodeResult seeds; the STATSREPLY seed is a served registry
// snapshot, engine collectors and histograms included.
func FuzzDecodeReply(f *testing.F) { fuzzCodecs(f, replyCodecs) }

// TestFuzzSeedsDecode holds the committed FuzzDecodeRequest and
// FuzzDecodeReply seeds to the codec tables: each seed's first byte
// names an opcode with a codec, and its payload decodes and re-encodes
// to the same bytes. A fuzzer skips or rejects a seed whose opcode was
// renumbered without a word, so such a seed fails here instead. Every
// payload-carrying opcode has a seed, but RESULT, which FuzzDecodeResult
// seeds.
func TestFuzzSeedsDecode(t *testing.T) {
	for _, b := range []struct {
		fuzzer string
		codecs map[MsgType]roundTrip
	}{{"FuzzDecodeRequest", requestCodecs}, {"FuzzDecodeReply", replyCodecs}} {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", b.fuzzer, "*"))
		if err != nil {
			t.Fatal(err)
		}
		seeded := make(map[MsgType]bool)
		for _, path := range paths {
			data := readSeed(t, path)
			if len(data) == 0 || b.codecs[MsgType(data[0])] == nil {
				t.Errorf("%s: the first byte names no opcode with a codec", path)
				continue
			}
			op, payload := MsgType(data[0]), data[1:]
			enc, err := b.codecs[op](bytes.Clone(payload))
			if err != nil {
				t.Errorf("%s: the %v payload does not decode: %v", path, op, err)
				continue
			}
			if !bytes.Equal(enc, payload) {
				t.Errorf("%s: the %v payload re-encodes as %x", path, op, enc)
			}
			seeded[op] = true
		}
		for op, codec := range b.codecs {
			if codec != nil && op != MsgResult && !seeded[op] {
				t.Errorf("%s has no seed for %v", b.fuzzer, op)
			}
		}
	}
}

// readSeed parses a corpus file holding one []byte value, in the format
// go test -fuzz writes.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a one-[]byte corpus file", path)
	}
	return []byte(s)
}
