package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"dkbms"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello")
	frame := append(Frame(make([]byte, 3, 64), MsgQuery), payload...)
	wn, err := WriteFrame(&buf, frame)
	if err != nil {
		t.Fatal(err)
	}
	if wn != 5+len(payload) {
		t.Fatalf("wrote %d bytes, want %d", wn, 5+len(payload))
	}
	// The frame reads back into the buffer it was built in.
	ty, got, rn, err := ReadFrame(&buf, frame)
	if err != nil {
		t.Fatal(err)
	}
	if ty != MsgQuery || string(got) != "hello" || rn != wn {
		t.Fatalf("read %v %q (%d bytes)", ty, got, rn)
	}
	if &got[0] != &frame[0] {
		t.Fatal("a payload that fits was not read into the caller's buffer")
	}
	// Clean EOF between frames is io.EOF, undecorated.
	if _, _, _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("EOF read: %v", err)
	}
	// A buffer past 64 KiB is dropped, a smaller one kept and emptied.
	if Reuse(make([]byte, 10, maxReused+1)) != nil {
		t.Fatal("Reuse kept a buffer larger than 64 KiB")
	}
	if b := Reuse(frame); len(b) != 0 || cap(b) != cap(frame) {
		t.Fatalf("Reuse(%d-byte buffer) = len %d cap %d", cap(frame), len(b), cap(b))
	}
}

func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, append(Frame(nil, MsgLoad), make([]byte, MaxFrameSize+1)...)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// An adversarial header with a huge length must be refused without
	// allocating the payload.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgLoad)})
	if _, _, _, err := ReadFrame(&buf, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized read: %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, append(Frame(nil, MsgPing), "abc"...)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	_, _, _, err := ReadFrame(bytes.NewReader(trunc), nil)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated read: %v", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	opts := QueryOpts{Naive: true}

	q, err := DecodeQuery(Query{Src: "?- a(X).", Opts: opts}.Encode())
	if err != nil || q.Src != "?- a(X)." || q.Opts != opts {
		t.Fatalf("query round trip: %+v %v", q, err)
	}
	l, err := DecodeLoad(Load{Src: "a(1)."}.Encode())
	if err != nil || l.Src != "a(1)." {
		t.Fatalf("load round trip: %+v %v", l, err)
	}
	r, err := DecodeRetract(Retract{Pattern: "a(1, X)"}.Encode())
	if err != nil || r.Pattern != "a(1, X)" {
		t.Fatalf("retract round trip: %+v %v", r, err)
	}
	rd, err := DecodeRetracted(Retracted{N: -3}.Encode())
	if err != nil || rd.N != -3 {
		t.Fatalf("retracted round trip: %+v %v", rd, err)
	}
	ee, err := DecodeError(Error{Msg: "boom"}.Encode())
	if err != nil || ee.Msg != "boom" {
		t.Fatalf("error round trip: %+v %v", ee, err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := Result{
		Vars: []string{"X", "Y"},
		Rows: []rel.Tuple{
			{rel.NewString("john"), rel.NewInt(1)},
			{rel.NewString("o'hara"), rel.NewInt(-5)},
		},
		Optimized: true,
		Strategy:  "semi-naive",
	}
	out, err := DecodeResult(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Optimized != in.Optimized || out.Strategy != in.Strategy {
		t.Fatalf("flags: %+v", out)
	}
	if len(out.Vars) != 2 || out.Vars[0] != "X" || out.Vars[1] != "Y" {
		t.Fatalf("vars: %v", out.Vars)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows: %v", out.Rows)
	}
	for i := range in.Rows {
		for j := range in.Rows[i] {
			if !rel.Equal(in.Rows[i][j], out.Rows[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, in.Rows[i][j], out.Rows[i][j])
			}
		}
	}
	// Empty result.
	empty, err := DecodeResult(Result{Strategy: "naive"}.Encode())
	if err != nil || len(empty.Rows) != 0 || len(empty.Vars) != 0 {
		t.Fatalf("empty result: %+v %v", empty, err)
	}

	// Rows of every shape the storage encoding has, with and without
	// Vars (benchmark/callers.go encodes a Result of rows alone). Each
	// decoded row is a view whose capacity is its length, and nothing of
	// it aliases the payload.
	long := strings.Repeat("é", 100) // 200 bytes: a two-byte length
	for _, rows := range [][]rel.Tuple{
		{{rel.NewInt(1 << 40), rel.NewString("")}, {rel.NewInt(-1), rel.NewString(long)}},
		{{rel.NewString(long)}, {rel.NewString("a")}, {rel.NewString("")}},
		{{rel.NewInt(0)}},
		{{}, {}, {}},
	} {
		p := Result{Rows: rows, Strategy: "naive"}.Encode()
		out, err := DecodeResult(p)
		if err != nil {
			t.Fatalf("%v: %v", rows, err)
		}
		for i := range p {
			p[i] = 0xFF
		}
		if len(out.Rows) != len(rows) {
			t.Fatalf("%v decoded as %v", rows, out.Rows)
		}
		for i, row := range out.Rows {
			if cap(row) != len(row) || rel.CompareTuples(row, rows[i]) != 0 {
				t.Fatalf("row %d = %v (cap %d), want %v", i, row, cap(row), rows[i])
			}
		}
	}
}

// TestResultHeaderBound sends RESULT headers that claim far more rows ×
// columns, or trace spans, than their bytes can hold: each is refused
// before anything is allocated for the claim.
func TestResultHeaderBound(t *testing.T) {
	pad := func(p []byte) []byte { return append(p, make([]byte, 16-len(p))...) }
	var claims [][]byte
	// 2^20 columns, 2^20 rows.
	claims = append(claims, pad(binary.AppendUvarint(binary.AppendUvarint([]byte{0, 0, 0}, 1<<20), 1<<20)))
	// One int column, 2^20 rows.
	claims = append(claims, pad(binary.AppendUvarint([]byte{0, 0, 0, 1, byte(rel.TypeInt)}, 1<<20)))
	// Zero-width rows, 2^20 of them.
	claims = append(claims, pad(binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<20)))
	// A trace 60 spans deep, every span claiming 2^16 children, in 66 KB.
	claims = append(claims, traceChain(60, 1<<16))
	for _, p := range claims {
		var err error
		grew := allocated(func() { _, err = DecodeResult(p) })
		if err == nil {
			t.Fatalf("DecodeResult(%x) accepted", p)
		}
		if grew >= 64<<10 {
			t.Fatalf("DecodeResult(%x) allocated %d bytes before failing", p, grew)
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// traceChain is a RESULT payload whose trace is a chain levels spans
// deep in which every span claims kids children, followed by kids zero
// bytes, so the bytes left at every level cover the claim counted as
// bytes but not as spans.
func traceChain(levels int, kids uint64) []byte {
	p := Result{}.Encode()
	p[0] |= resultTrace
	for i := 0; i < levels; i++ {
		p = append(p, 0, 0, 0, 0) // name, duration, offset, attribute count
		p = binary.AppendUvarint(p, kids)
	}
	return append(p, make([]byte, kids)...)
}

// TestDecodeResultAllocs pins the decode of a one-column RESULT to a
// number of objects that does not grow with its rows: one value slab
// and one string per reply, not a tuple per row and a string per value.
func TestDecodeResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(n int) float64 {
		rows := make([]rel.Tuple, n)
		for i := range rows {
			rows[i] = rel.Tuple{rel.NewString(fmt.Sprintf("c%d", i))}
		}
		p := Result{Vars: []string{"X"}, Rows: rows, Strategy: "semi-naive"}.Encode()
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeResult(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(510); few != many {
		t.Fatalf("decoding 10 rows allocates %v objects, 510 rows %v", few, many)
	}
}

// TestQueryOptsRoundTrip drives every combination of the options, a
// query ID or none included, through a QUERY frame. If a field is added
// to QueryOptions without its option bit, some combination here
// diverges. Bit 2 is retired: a QUERY that sets it is refused.
func TestQueryOptsRoundTrip(t *testing.T) {
	for bits := 0; bits < 1<<5; bits++ {
		o := QueryOpts{
			Naive:      bits&1 != 0,
			NoOptimize: bits&2 != 0,
			Trace:      bits&8 != 0,
		}
		if bits&16 != 0 {
			o.QueryID = 1 << 40
		}
		p := Query{Src: "?- p(X).", Opts: o}.Encode()
		if bits&4 != 0 {
			p[0] |= 4
			if _, err := DecodeQuery(p); err == nil {
				t.Errorf("bits %05b: a QUERY with the retired bit 2 decoded", bits)
			}
			continue
		}
		q, err := DecodeQuery(p)
		if err != nil || q.Opts != o || q.Src != "?- p(X)." {
			t.Errorf("bits %05b: query frame: %+v %v, want %+v", bits, q, err, o)
		}
	}
}

// TestErrorCodes checks that the code byte survives the wire and that
// Err() reconstructs an error satisfying errors.Is against the sentinel
// each code names.
func TestErrorCodes(t *testing.T) {
	cases := []struct {
		code     ErrCode
		in       error
		sentinel error
	}{
		{CodeParse, dkbms.ErrParse, dkbms.ErrParse},
		{CodeSemantic, dkbms.ErrSemantic, dkbms.ErrSemantic},
		{CodeUnknownPredicate, dkbms.ErrUnknownPredicate, dkbms.ErrUnknownPredicate},
		{CodeClosed, dkbms.ErrClosed, dkbms.ErrClosed},
		{CodeOther, errors.New("disk on fire"), nil},
	}
	for _, tc := range cases {
		if got := CodeFor(tc.in); got != tc.code {
			t.Errorf("CodeFor(%v) = %d, want %d", tc.in, got, tc.code)
		}
		msg := "dkbms: something: " + tc.in.Error()
		e, err := DecodeError(Error{Code: tc.code, Msg: msg}.Encode())
		if err != nil || e.Code != tc.code || e.Msg != msg {
			t.Fatalf("code %d round trip: %+v %v", tc.code, e, err)
		}
		out := e.Err()
		if tc.sentinel != nil && !errors.Is(out, tc.sentinel) {
			t.Errorf("code %d: %v does not wrap %v", tc.code, out, tc.sentinel)
		}
		if !strings.Contains(out.Error(), tc.in.Error()) {
			t.Errorf("code %d: message %q lost server text %q", tc.code, out.Error(), tc.in.Error())
		}
	}
	// Doubly-wrapped chains (the root API wraps sentinel over cause)
	// still classify by the sentinel.
	chain := fmt.Errorf("%w: %w", dkbms.ErrUnknownPredicate, errors.New("no rules for p"))
	if CodeFor(chain) != CodeUnknownPredicate {
		t.Errorf("wrapped unknown-predicate classified as %d", CodeFor(chain))
	}
}

// TestResultTraceRoundTrip encodes a RESULT carrying a span tree and
// checks the tree decodes node-for-node.
func TestResultTraceRoundTrip(t *testing.T) {
	tr := obs.NewTrace("query")
	c := tr.Root().Start("eval")
	it := c.Start("iteration 1")
	it.SetInt("delta(anc)", 42)
	it.SetString("strategy", "semi-naive")
	it.SetDuration(3 * time.Millisecond)
	it.End()
	c.End()
	tr.Finish()

	in := Result{Strategy: "semi-naive", Trace: tr.Root()}
	out, err := DecodeResult(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("trace dropped")
	}
	var compare func(a, b *obs.Span)
	compare = func(a, b *obs.Span) {
		if a.Name != b.Name || a.Duration != b.Duration || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
			t.Fatalf("span mismatch: %+v vs %+v", a, b)
		}
		for i := range a.Attrs {
			if a.Attrs[i] != b.Attrs[i] {
				t.Fatalf("attr %d of %q: %+v vs %+v", i, a.Name, a.Attrs[i], b.Attrs[i])
			}
		}
		for i := range a.Children {
			compare(a.Children[i], b.Children[i])
		}
	}
	compare(in.Trace, out.Trace)
	// Adopted traces format identically to the original.
	if got, want := obs.Adopt(out.Trace).Format(), tr.Format(); got != want {
		t.Errorf("formatted trace differs:\n%s\nvs\n%s", got, want)
	}
	// A result without the trace bit must decode with a nil trace.
	plain, err := DecodeResult(Result{Strategy: "naive"}.Encode())
	if err != nil || plain.Trace != nil {
		t.Fatalf("traceless result: %+v %v", plain, err)
	}
}

// TestTraceDepthGuard builds a chain nested past maxSpanDepth and
// checks the decoder refuses it instead of recursing unboundedly.
func TestTraceDepthGuard(t *testing.T) {
	root := &obs.Span{Name: "0"}
	cur := root
	for i := 0; i < maxSpanDepth+2; i++ {
		next := &obs.Span{Name: "n"}
		cur.Children = append(cur.Children, next)
		cur = next
	}
	p := Result{Strategy: "naive", Trace: root}.Encode()
	if _, err := DecodeResult(p); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Fatalf("deep trace accepted: %v", err)
	}
	// Truncated span payloads must error, not panic.
	ok := Result{Strategy: "naive", Trace: &obs.Span{Name: "x", Attrs: []obs.Attr{{Key: "k", Int: 7}}}}.Encode()
	for i := len(ok) - 1; i > len(ok)-6; i-- {
		if _, err := DecodeResult(ok[:i]); err == nil {
			t.Errorf("truncated trace at %d accepted", i)
		}
	}
}

// decodeErr adapts a decoder to the one shape TestDecodeCorrupt drives.
func decodeErr[T any](decode func([]byte) (T, error)) func([]byte) error {
	return func(p []byte) error { _, err := decode(p); return err }
}

func TestDecodeCorrupt(t *testing.T) {
	// None of the decoders may panic or succeed on truncated payloads.
	corrupt := [][]byte{nil, {}, {0xFF}, {0x05, 'a'}}
	for _, p := range corrupt {
		if _, err := DecodeLoad(p); err == nil && len(p) != 0 {
			// empty string payload is legal for Load only when complete
			t.Errorf("DecodeLoad(%v) accepted", p)
		}
		if _, err := DecodeResult(p); err == nil {
			t.Errorf("DecodeResult(%v) accepted", p)
		}
	}

	// Every message carries every field it declares, so each proper
	// prefix of a valid payload is truncated, whichever field it stops
	// in.
	tr := &obs.Span{Name: "query", Duration: time.Millisecond, Attrs: []obs.Attr{{Key: "n", Int: 300}, {Key: "s", IsStr: true, Str: "v"}},
		Children: []*obs.Span{{Name: "eval", Offset: time.Microsecond}}}
	res := Result{
		Vars:     []string{"X", "S"},
		Rows:     []rel.Tuple{{rel.NewInt(1), rel.NewString("")}, {rel.NewInt(-2), rel.NewString(strings.Repeat("y", 200))}},
		Strategy: "semi-naive",
	}
	withTrace, withID, withBoth := res, res, res
	withTrace.Trace, withID.QueryID = tr, 0xdeadbeef
	withBoth.Trace, withBoth.QueryID = tr, 0xdeadbeef
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"RESULT", res.Encode(), decodeErr(DecodeResult)},
		{"RESULT+trace", withTrace.Encode(), decodeErr(DecodeResult)},
		{"RESULT+query ID", withID.Encode(), decodeErr(DecodeResult)},
		{"RESULT+query ID+trace", withBoth.Encode(), decodeErr(DecodeResult)},
		{"RESULT with no rows", Result{Vars: []string{"X"}, Strategy: "naive"}.Encode(), decodeErr(DecodeResult)},
		{"QUERY", Query{Src: "?- a(X).", Opts: QueryOpts{Naive: true}}.Encode(), decodeErr(DecodeQuery)},
		{"QUERY+query ID", Query{Src: "?- a(X).", Opts: QueryOpts{QueryID: 1 << 40}}.Encode(), decodeErr(DecodeQuery)},
		{"LOAD", Load{Src: "a(1)."}.Encode(), decodeErr(DecodeLoad)},
		{"RETRACT", Retract{Pattern: "a(1, X)"}.Encode(), decodeErr(DecodeRetract)},
		{"ERROR", Error{Code: CodeParse, Msg: "boom"}.Encode(), decodeErr(DecodeError)},
		{"RETRACTED", Retracted{N: -300}.Encode(), decodeErr(DecodeRetracted)},
	} {
		if err := c.decode(c.payload); err != nil {
			t.Errorf("%s: the whole payload fails: %v", c.name, err)
		}
		for n := 0; n < len(c.payload); n++ {
			if c.decode(c.payload[:n]) == nil {
				t.Errorf("%s: accepted the first %d of %d bytes", c.name, n, len(c.payload))
			}
		}
	}
	// Every request and every reply end at their last field.
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"RESULT", res.Encode(), decodeErr(DecodeResult)},
		{"LOAD", Load{Src: "a(1)."}.Encode(), decodeErr(DecodeLoad)},
		{"QUERY", Query{Src: "?- a(X)."}.Encode(), decodeErr(DecodeQuery)},
		{"QUERY+query ID", Query{Src: "?- a(X).", Opts: QueryOpts{QueryID: 5}}.Encode(), decodeErr(DecodeQuery)},
		{"RETRACT", Retract{Pattern: "a(1, X)"}.Encode(), decodeErr(DecodeRetract)},
		{"ERROR", Error{Code: CodeParse, Msg: "boom"}.Encode(), decodeErr(DecodeError)},
		{"RETRACTED", Retracted{N: 3}.Encode(), decodeErr(DecodeRetracted)},
	} {
		if c.decode(append(c.payload, 0)) == nil {
			t.Errorf("%s: accepted a trailing byte", c.name)
		}
	}
	// An option bit no encoder sets and a query ID flagged but 0.
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"QUERY with an unknown option", append([]byte{0x80}, Load{Src: "?- a(X)."}.Encode()...), decodeErr(DecodeQuery)},
		{"QUERY with the lowest unassigned option", append([]byte{optQueryID << 1}, Load{Src: "?- a(X)."}.Encode()...), decodeErr(DecodeQuery)},
		{"QUERY flagging a zero query ID", append(append([]byte{optQueryID}, Load{Src: "?- a(X)."}.Encode()...), 0), decodeErr(DecodeQuery)},
	} {
		if c.decode(c.payload) == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestQueryIDRoundTrip drives the wire-propagated query ID through the
// QUERY and RESULT frames, and checks an ID-less frame carries no
// ID bytes or bits.
func TestQueryIDRoundTrip(t *testing.T) {
	const qid = 0xdeadbeefcafe

	// QUERY: the ID rides behind the option bit.
	q, err := DecodeQuery(Query{Src: "?- a(X).", Opts: QueryOpts{Naive: true, QueryID: qid}}.Encode())
	if err != nil || q.Opts.QueryID != qid || !q.Opts.Naive || q.Src != "?- a(X)." {
		t.Fatalf("query with id: %+v %v", q, err)
	}
	// Without an ID the frame carries no extra bytes or bits.
	plain := Query{Src: "?- a(X)."}.Encode()
	if plain[0] != 0 || len(plain) != 1+1+len("?- a(X).") {
		t.Fatalf("ID-less QUERY grew: flags=%x len=%d", plain[0], len(plain))
	}

	// RESULT: the server echoes the ID behind a flags bit.
	r, err := DecodeResult(Result{Strategy: "semi-naive", QueryID: qid}.Encode())
	if err != nil || r.QueryID != qid || r.Strategy != "semi-naive" {
		t.Fatalf("result echo: %+v %v", r, err)
	}
	if p := (Result{Strategy: "naive"}).Encode(); p[0] != 0 {
		t.Fatalf("ID-less RESULT sets flags %x", p[0])
	}

	// RESULT carrying both an ID and a trace keeps the field order.
	tr := obs.NewTrace("query")
	tr.Finish()
	rt, err := DecodeResult(Result{Strategy: "naive", QueryID: qid, Trace: tr.Root()}.Encode())
	if err != nil || rt.QueryID != qid || rt.Trace == nil || rt.Trace.Name != "query" {
		t.Fatalf("result id+trace: %+v %v", rt, err)
	}
}

// TestSpanOffsetRoundTrip checks the span start offsets survive the
// wire (the Perfetto exporter places spans on the timeline with them).
func TestSpanOffsetRoundTrip(t *testing.T) {
	root := &obs.Span{Name: "query", Duration: 10 * time.Millisecond}
	root.Children = []*obs.Span{
		{Name: "compile", Duration: 2 * time.Millisecond},
		{Name: "eval", Offset: 2 * time.Millisecond, Duration: 8 * time.Millisecond},
	}
	out, err := DecodeResult(Result{Strategy: "naive", Trace: root}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Trace.Children[1].Offset; got != 2*time.Millisecond {
		t.Fatalf("eval offset = %v", got)
	}
	if got := out.Trace.Children[0].Offset; got != 0 {
		t.Fatalf("compile offset = %v", got)
	}
}
