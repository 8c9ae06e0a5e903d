package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
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
	opts := QueryOpts{Naive: true, Parallel: true}

	q, err := DecodeQuery(Query{Src: "?- a(X).", Opts: opts}.Encode())
	if err != nil || q.Src != "?- a(X)." || q.Opts != opts {
		t.Fatalf("query round trip: %+v %v", q, err)
	}
	p, err := DecodePrepare(Prepare{Src: "?- b(Y).", Opts: opts}.Encode())
	if err != nil || p.Src != "?- b(Y)." || p.Opts != opts {
		t.Fatalf("prepare round trip: %+v %v", p, err)
	}
	l, err := DecodeLoad(Load{Src: "a(1)."}.Encode())
	if err != nil || l.Src != "a(1)." {
		t.Fatalf("load round trip: %+v %v", l, err)
	}
	e, err := DecodeExecP(ExecP{ID: 42}.Encode())
	if err != nil || e.ID != 42 {
		t.Fatalf("execp round trip: %+v %v", e, err)
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
	pr, err := DecodePrepared(Prepared{ID: 7, Generation: 9}.Encode())
	if err != nil || pr.ID != 7 || pr.Generation != 9 {
		t.Fatalf("prepared round trip: %+v %v", pr, err)
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
// columns than their bytes can hold: each is refused before a value slab
// is allocated for the claim.
func TestResultHeaderBound(t *testing.T) {
	pad := func(p []byte) []byte { return append(p, make([]byte, 16-len(p))...) }
	var claims [][]byte
	// 2^20 columns, 2^20 rows.
	claims = append(claims, pad(binary.AppendUvarint(binary.AppendUvarint([]byte{0, 0, 0}, 1<<20), 1<<20)))
	// One int column, 2^20 rows.
	claims = append(claims, pad(binary.AppendUvarint([]byte{0, 0, 0, 1, byte(rel.TypeInt)}, 1<<20)))
	// Zero-width rows, 2^20 of them.
	claims = append(claims, pad(binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<20)))
	for _, p := range claims {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResult(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("DecodeResult(%x) accepted", p)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Fatalf("DecodeResult(%x) allocated %d bytes before failing", p, grew)
		}
	}
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

// TestQueryOptsRoundTrip drives every combination of the option bools
// through both conversion paths: root API ↔ wire struct, and wire
// struct ↔ option byte. If a field is added to one side but not the
// other, some combination here diverges.
func TestQueryOptsRoundTrip(t *testing.T) {
	for bits := 0; bits < 1<<5; bits++ {
		o := &dkbms.QueryOptions{
			Naive:      bits&1 != 0,
			NoOptimize: bits&2 != 0,
			Adaptive:   bits&4 != 0,
			Parallel:   bits&8 != 0,
			Trace:      bits&16 != 0,
		}
		w := FromOptions(o)
		back := w.ToOptions()
		if *back != *o {
			t.Errorf("bits %05b: FromOptions/ToOptions: got %+v, want %+v", bits, *back, *o)
		}
		if got := decodeOpts(w.encode()); got != w {
			t.Errorf("bits %05b: encode/decodeOpts: got %+v, want %+v", bits, got, w)
		}
		// The full QUERY frame must carry the bits too.
		q, err := DecodeQuery(Query{Src: "?- p(X).", Opts: w}.Encode())
		if err != nil || q.Opts != w {
			t.Errorf("bits %05b: query frame: %+v %v", bits, q.Opts, err)
		}
	}
	if FromOptions(nil) != (QueryOpts{}) {
		t.Errorf("FromOptions(nil) = %+v, want zero", FromOptions(nil))
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

// statsSample is a STATSREPLY payload with one metric of each kind,
// negative and empty values included.
var statsSample = Metrics{
	{Name: "", Kind: obs.KindGauge, Value: -3},
	{Name: "server.request_latency_ns", Kind: obs.KindHistogram, Value: 12, Sum: 1 << 40, P50: 1 << 15, P99: 1 << 22},
	{Name: "server.requests", Kind: obs.KindCounter, Value: 12345},
	{Name: "table.f_parent.rows", Kind: obs.KindGauge, Value: 300},
}

func TestMetricsRoundTrip(t *testing.T) {
	for _, in := range []Metrics{statsSample, {}} {
		out, err := DecodeMetrics(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out, in) {
			t.Fatalf("got %+v, want %+v", out, in)
		}
	}
}

func TestViewsRoundTrip(t *testing.T) {
	in := Views{Views: []ViewInfo{
		{Query: "?- ancestor(c0, X).", Policy: "auto", Rows: 16,
			Maintains: 12, LastDeltaTuples: 3, LastMaintain: 480 * time.Microsecond},
		{Query: "?- same_gen(a, X).", Policy: "incremental", Rows: 1022},
	}}
	out, err := DecodeViews(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Views) != 2 || out.Views[0] != in.Views[0] || out.Views[1] != in.Views[1] {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	// Empty reply round-trips too.
	empty, err := DecodeViews(Views{}.Encode())
	if err != nil || len(empty.Views) != 0 {
		t.Fatalf("empty reply: %+v, %v", empty, err)
	}
	// Truncated payloads are rejected, not panicked on.
	enc := in.Encode()
	for _, p := range [][]byte{nil, {0xFF}, enc[:len(enc)-3], enc[:5]} {
		if _, err := DecodeViews(p); err == nil {
			t.Errorf("DecodeViews(%v) accepted", p)
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
		if _, err := DecodeMetrics(p); err == nil {
			t.Errorf("DecodeMetrics(%v) accepted", p)
		}
	}

	// Every message carries every field it declares, so each proper
	// prefix of a valid payload is truncated, whichever field it stops
	// in. DecodeExecP is exempt: ExecP's query ID is omitted when it is
	// 0, so its payload cut before the ID is the valid encoding of the
	// same statement id without one.
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
	slow := Slowlog{ThresholdNs: 5, Capacity: 8, Recorded: 2, Entries: []obs.SlowQuery{
		{Query: "?- a(X).", Latency: time.Millisecond, Cache: "miss", Rows: 3, QueryID: 9, Trace: tr},
		{Query: "?- b(", Err: "parse error"},
	}}
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
		{"PREPARE", Prepare{Src: "?- b(Y).", Opts: QueryOpts{Trace: true}}.Encode(), decodeErr(DecodePrepare)},
		{"LOAD", Load{Src: "a(1)."}.Encode(), decodeErr(DecodeLoad)},
		{"RETRACT", Retract{Pattern: "a(1, X)"}.Encode(), decodeErr(DecodeRetract)},
		{"PREPARED", Prepared{ID: 300, Generation: 70000}.Encode(), decodeErr(DecodePrepared)},
		{"ERROR", Error{Code: CodeParse, Msg: "boom"}.Encode(), decodeErr(DecodeError)},
		{"RETRACTED", Retracted{N: -300}.Encode(), decodeErr(DecodeRetracted)},
		{"VIEWS", Views{Views: []ViewInfo{{Query: "?- a(X).", Policy: "auto", Rows: 300, LastMaintain: time.Second}}}.Encode(), decodeErr(DecodeViews)},
		{"SLOWLOG", slow.Encode(), decodeErr(DecodeSlowlog)},
		{"STATSREPLY", statsSample.Encode(), decodeErr(DecodeMetrics)},
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
		{"PREPARE", Prepare{Src: "?- b(Y)."}.Encode(), decodeErr(DecodePrepare)},
		{"EXECP", ExecP{ID: 3}.Encode(), decodeErr(DecodeExecP)},
		{"EXECP+query ID", ExecP{ID: 3, QueryID: 5}.Encode(), decodeErr(DecodeExecP)},
		{"RETRACT", Retract{Pattern: "a(1, X)"}.Encode(), decodeErr(DecodeRetract)},
		{"PREPARED", Prepared{ID: 300, Generation: 7}.Encode(), decodeErr(DecodePrepared)},
		{"ERROR", Error{Code: CodeParse, Msg: "boom"}.Encode(), decodeErr(DecodeError)},
		{"RETRACTED", Retracted{N: 3}.Encode(), decodeErr(DecodeRetracted)},
		{"VIEWS", Views{Views: []ViewInfo{{Query: "?- a(X).", Policy: "auto"}}}.Encode(), decodeErr(DecodeViews)},
		{"SLOWLOG", slow.Encode(), decodeErr(DecodeSlowlog)},
		{"STATSREPLY", statsSample.Encode(), decodeErr(DecodeMetrics)},
	} {
		if c.decode(append(c.payload, 0)) == nil {
			t.Errorf("%s: accepted a trailing byte", c.name)
		}
	}
	// An option bit no encoder sets, a query ID flagged but 0, a
	// slow-query trace flag that is neither 0 nor 1, a metric kind byte
	// past the known kinds, and a metric count no payload can hold (a
	// decoder that sized its slice by the count would panic on it).
	badFlag := Slowlog{Entries: []obs.SlowQuery{{Query: "?- a(X)."}}}.Encode()
	badFlag[len(badFlag)-1] = 2
	badKind := Metrics{{Name: "x", Kind: obs.KindCounter, Value: 1}}.Encode()
	badKind[3] = byte(len(metricKinds))
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"QUERY with an unknown option", append([]byte{0x80}, Load{Src: "?- a(X)."}.Encode()...), decodeErr(DecodeQuery)},
		{"PREPARE with an unknown option", append([]byte{0x40}, Load{Src: "?- a(X)."}.Encode()...), decodeErr(DecodePrepare)},
		{"QUERY flagging a zero query ID", append(append([]byte{optQueryID}, Load{Src: "?- a(X)."}.Encode()...), 0), decodeErr(DecodeQuery)},
		{"PREPARE with a query ID", Query{Src: "?- a(X).", Opts: QueryOpts{QueryID: 5}}.Encode(), decodeErr(DecodePrepare)},
		{"EXECP sending a zero query ID", []byte{3, 0}, decodeErr(DecodeExecP)},
		{"SLOWLOG with a trace flag of 2", badFlag, decodeErr(DecodeSlowlog)},
		{"STATSREPLY with an unknown metric kind", badKind, decodeErr(DecodeMetrics)},
		{"STATSREPLY with a kind no encoder numbers", Metrics{{Name: "x", Kind: "summary"}}.Encode(), decodeErr(DecodeMetrics)},
		{"STATSREPLY counting 2^64-1 metrics", append(binary.AppendUvarint(nil, 1<<64-1), statsSample.Encode()[1:]...), decodeErr(DecodeMetrics)},
	} {
		if c.decode(c.payload) == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSlowlogRoundTrip(t *testing.T) {
	tr := obs.NewTrace("query")
	sp := tr.Start("lfp")
	sp.SetInt("iterations", 9)
	sp.End()
	tr.Finish()
	in := Slowlog{
		ThresholdNs: int64(5 * time.Millisecond),
		Capacity:    128,
		Recorded:    2,
		Entries: []obs.SlowQuery{
			{
				Query:      "?- ancestor(X, W).",
				Start:      time.Unix(0, 1700000000123456789),
				Latency:    42 * time.Millisecond,
				Cache:      "plan",
				Iterations: 9,
				Rows:       8194,
				Session:    7,
				Trace:      tr.Root(),
			},
			{Query: "?- broken(", Latency: time.Millisecond, Err: "parse error"},
		},
	}
	out, err := DecodeSlowlog(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.ThresholdNs != in.ThresholdNs || out.Capacity != 128 || out.Recorded != 2 {
		t.Fatalf("header fields wrong: %+v", out)
	}
	if len(out.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(out.Entries))
	}
	e := out.Entries[0]
	if e.Query != in.Entries[0].Query || e.Latency != in.Entries[0].Latency ||
		e.Cache != "plan" || e.Iterations != 9 || e.Rows != 8194 || e.Session != 7 {
		t.Fatalf("entry 0 = %+v", e)
	}
	if !e.Start.Equal(in.Entries[0].Start) {
		t.Fatalf("start = %v, want %v", e.Start, in.Entries[0].Start)
	}
	if e.Trace == nil || e.Trace.Find("lfp") == nil {
		t.Fatal("retained trace lost on the wire")
	}
	if v, _ := e.Trace.Find("lfp").Int("iterations"); v != 9 {
		t.Fatalf("trace attr lost: %d", v)
	}
	if out.Entries[1].Trace != nil || out.Entries[1].Err != "parse error" {
		t.Fatalf("entry 1 = %+v", out.Entries[1])
	}
}

func TestDecodeSlowlogCorrupt(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {0xFF}, {0x00, 0x00, 0x00, 0xFF}} {
		if _, err := DecodeSlowlog(p); err == nil {
			t.Errorf("DecodeSlowlog(%v) accepted", p)
		}
	}
	// An entry count larger than the payload must be rejected, not
	// allocated.
	var buf []byte
	buf = append(buf, 0, 0, 0) // threshold, capacity, recorded
	buf = append(buf, 0xFF, 0xFF, 0x03)
	if _, err := DecodeSlowlog(buf); err == nil {
		t.Error("oversized entry count accepted")
	}
}

// TestQueryIDRoundTrip drives the wire-propagated query ID through the
// QUERY, EXECP and RESULT frames, and checks an ID-less frame carries no
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

	// PREPARE: the ID belongs to each EXECP, so a prepare sends none.
	p, err := DecodePrepare(Prepare{Src: "?- a(X).", Opts: QueryOpts{Trace: true, QueryID: 7}}.Encode())
	if err != nil || p.Opts != (QueryOpts{Trace: true}) || p.Src != "?- a(X)." {
		t.Fatalf("prepare with id: %+v %v", p, err)
	}

	// EXECP: the ID is a trailing field, omitted when 0.
	e, err := DecodeExecP(ExecP{ID: 9, QueryID: qid}.Encode())
	if err != nil || e.ID != 9 || e.QueryID != qid {
		t.Fatalf("execp with id: %+v %v", e, err)
	}
	old, err := DecodeExecP(ExecP{ID: 9}.Encode())
	if err != nil || old.ID != 9 || old.QueryID != 0 {
		t.Fatalf("ID-less execp: %+v %v", old, err)
	}
	if len(ExecP{ID: 9}.Encode()) != 1 {
		t.Fatalf("ID-less EXECP grew: %d bytes", len(ExecP{ID: 9}.Encode()))
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

// TestSlowlogQueryID checks the per-entry query ID survives the wire.
func TestSlowlogQueryID(t *testing.T) {
	in := Slowlog{Capacity: 8, Recorded: 1, Entries: []obs.SlowQuery{
		{Query: "?- a(X).", Latency: time.Millisecond, QueryID: 0xabc},
	}}
	out, err := DecodeSlowlog(in.Encode())
	if err != nil || len(out.Entries) != 1 || out.Entries[0].QueryID != 0xabc {
		t.Fatalf("slowlog query id: %+v %v", out, err)
	}
}
