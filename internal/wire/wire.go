// Package wire defines the dkbd client/server protocol: length-prefixed
// frames carrying typed request and response messages.
//
// A frame is
//
//	uint32 big-endian payload length | uint8 message type | payload
//
// and payloads are built from uvarint-prefixed strings and varint
// integers. A RESULT's rows travel as one rel.AppendRows block — the
// column types once, then each row's record in the storage encoding
// behind its length — which the client decodes a block at a time through
// rel.BlockDecoder, the decoder heap pages use. The
// protocol is deliberately small — request types mirroring the
// testbed's public operations (PING, LOAD, QUERY, RETRACT) and their
// replies — so that a session is a strict request/response alternation
// over one TCP connection. Telemetry (metrics, the slow-query log) is
// not on this protocol: dkbd serves it over HTTP on its debug listener.
//
// Each end of a connection builds and reads frames in buffers it owns:
// Frame begins a frame in one, WriteFrame completes its header and
// writes it, ReadFrame reads into one, and Reuse hands a buffer back for
// the next frame. Decoders copy what they keep, so a payload may be
// overwritten once it is decoded.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"dkbms"
	"dkbms/internal/obs"
	"dkbms/internal/rel"
)

// MaxFrameSize bounds a frame payload; both sides refuse larger frames
// rather than buffering unbounded attacker-controlled lengths.
const MaxFrameSize = 16 << 20

// MsgType identifies a frame's message.
type MsgType uint8

// Request messages. Each block ends in an unexported sentinel: the
// package's tests require a String name and a codec table entry for
// every opcode below it, and the server's tests send every request
// opcode and fail on an "unknown request type" reply.
const (
	MsgPing MsgType = iota + 1
	MsgLoad
	MsgQuery
	MsgRetract
	msgRequestEnd
)

// Response messages.
const (
	MsgPong MsgType = iota + 0x10
	MsgOK
	MsgError
	MsgResult
	MsgRetracted
	msgReplyEnd
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgPing:
		return "PING"
	case MsgLoad:
		return "LOAD"
	case MsgQuery:
		return "QUERY"
	case MsgRetract:
		return "RETRACT"
	case MsgPong:
		return "PONG"
	case MsgOK:
		return "OK"
	case MsgError:
		return "ERROR"
	case MsgResult:
		return "RESULT"
	case MsgRetracted:
		return "RETRACTED"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Frame begins a frame of type t in buf's storage: it returns buf[:0]
// followed by the 5-byte header WriteFrame completes. Append the payload
// to it.
func Frame(buf []byte, t MsgType) []byte {
	return append(buf[:0], 0, 0, 0, 0, byte(t))
}

// WriteFrame completes the header of a frame begun with Frame and writes
// the frame. It returns the number of bytes written (the server's
// traffic counters use it).
func WriteFrame(w io.Writer, frame []byte) (int, error) {
	n := len(frame) - 5
	if n > MaxFrameSize {
		return 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return w.Write(frame)
}

// ReadFrame reads one frame into buf's storage, allocating only when
// the frame does not fit, and returns its type, payload and total size
// on the wire. The payload is buf's storage: decode it before reading
// the next frame into buf. io.EOF is returned unwrapped on a clean close
// before the first header byte.
func ReadFrame(r io.Reader, buf []byte) (MsgType, []byte, int, error) {
	if cap(buf) < 5 {
		buf = make([]byte, 5)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, 0, err // clean EOF between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, 0, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	n, t := binary.BigEndian.Uint32(hdr), MsgType(hdr[4])
	if n > MaxFrameSize {
		return 0, nil, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return t, payload, 5 + int(n), nil
}

// maxReused is the largest frame buffer Reuse keeps.
const maxReused = 64 << 10

// Reuse returns buf emptied for the next frame, or nil once a frame grew
// it past 64 KiB, so that one large answer does not pin its memory for
// the life of the connection.
func Reuse(buf []byte) []byte {
	if cap(buf) > maxReused {
		return nil
	}
	return buf[:0]
}

// --- Encoding primitives ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, rest, err := readUvarint(buf)
	if err != nil || n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("wire: corrupt string field")
	}
	return string(rest[:n]), rest[n:], nil
}

// readUvarint reads a uvarint as binary.AppendUvarint writes it. A
// multi-byte uvarint ending in a zero group is a longer spelling of a
// smaller number, which no encoder writes.
func readUvarint(buf []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || sz > 1 && buf[sz-1] == 0 {
		return 0, nil, fmt.Errorf("wire: corrupt uvarint field")
	}
	return n, buf[sz:], nil
}

// readVarint reads a varint, which is a zig-zagged uvarint.
func readVarint(buf []byte) (int64, []byte, error) {
	n, sz := binary.Varint(buf)
	if sz <= 0 || sz > 1 && buf[sz-1] == 0 {
		return 0, nil, fmt.Errorf("wire: corrupt varint field")
	}
	return n, buf[sz:], nil
}

// --- Query options ---

// QueryOpts are the options a QUERY carries: the root API's own
// struct, whose bools travel as bits of the option byte and whose
// QueryID trails the source. Parallel, an ignored field, does not
// travel.
type QueryOpts = dkbms.QueryOptions

const (
	optNaive = 1 << iota
	optNoOptimize
	_ // retired: bit 2 once asked for parallel evaluation; a QUERY that sets it is refused
	optTrace
	// optQueryID marks a query-ID uvarint trailing the source string. It
	// is set exactly when the ID is non-zero, so an ID-less QUERY ends at
	// its source.
	optQueryID

	optKnown = optNaive | optNoOptimize | optTrace | optQueryID
)

func encodeOpts(o QueryOpts) byte {
	var b byte
	if o.Naive {
		b |= optNaive
	}
	if o.NoOptimize {
		b |= optNoOptimize
	}
	if o.Trace {
		b |= optTrace
	}
	if o.QueryID != 0 {
		b |= optQueryID
	}
	return b
}

func decodeOpts(b byte) QueryOpts {
	return QueryOpts{
		Naive:      b&optNaive != 0,
		NoOptimize: b&optNoOptimize != 0,
		Trace:      b&optTrace != 0,
	}
}

// --- Requests ---

// Load is the LOAD request: enter a Horn-clause program.
type Load struct{ Src string }

// Encode renders the payload.
func (m Load) Encode() []byte { return appendString(nil, m.Src) }

// DecodeLoad parses a LOAD payload.
func DecodeLoad(p []byte) (Load, error) {
	src, rest, err := readString(p)
	if err == nil {
		err = trailing(rest, MsgLoad)
	}
	return Load{Src: src}, err
}

// trailing rejects bytes left over after a payload's last field, so that
// every accepted payload re-encodes to the same bytes.
func trailing(rest []byte, t MsgType) error {
	if len(rest) > 0 {
		return fmt.Errorf("wire: %d trailing bytes after %s", len(rest), t)
	}
	return nil
}

// Query is the QUERY request: compile and evaluate a query.
type Query struct {
	Src  string
	Opts QueryOpts
}

// Encode renders the payload: the option byte, the source, then (when
// the optQueryID bit is set) the query-ID uvarint.
func (m Query) Encode() []byte {
	buf := appendString([]byte{encodeOpts(m.Opts)}, m.Src)
	if m.Opts.QueryID != 0 {
		buf = binary.AppendUvarint(buf, m.Opts.QueryID)
	}
	return buf
}

// DecodeQuery parses a QUERY payload.
func DecodeQuery(p []byte) (Query, error) {
	if len(p) < 1 {
		return Query{}, fmt.Errorf("wire: empty QUERY payload")
	}
	if p[0]&^optKnown != 0 {
		return Query{}, fmt.Errorf("wire: unknown QUERY options %#x", p[0])
	}
	src, rest, err := readString(p[1:])
	m := Query{Src: src, Opts: decodeOpts(p[0])}
	if err != nil {
		return m, err
	}
	if p[0]&optQueryID != 0 {
		if m.Opts.QueryID, rest, err = readUvarint(rest); err != nil {
			return m, err
		}
		if m.Opts.QueryID == 0 {
			return m, fmt.Errorf("wire: QUERY flags a zero query ID")
		}
	}
	return m, trailing(rest, MsgQuery)
}

// Retract is the RETRACT request: delete facts matching a pattern atom.
type Retract struct{ Pattern string }

// Encode renders the payload.
func (m Retract) Encode() []byte { return appendString(nil, m.Pattern) }

// DecodeRetract parses a RETRACT payload.
func DecodeRetract(p []byte) (Retract, error) {
	pat, rest, err := readString(p)
	if err == nil {
		err = trailing(rest, MsgRetract)
	}
	return Retract{Pattern: pat}, err
}

// --- Responses ---

// ErrCode classifies a server-side error so clients can branch with
// errors.Is instead of matching message text. Codes are part of the
// protocol: never renumber, only append.
type ErrCode uint8

// Stable error codes.
const (
	// CodeOther is any error without a finer classification.
	CodeOther ErrCode = iota
	// CodeParse maps to dkbms.ErrParse.
	CodeParse
	// CodeSemantic maps to dkbms.ErrSemantic.
	CodeSemantic
	// CodeUnknownPredicate maps to dkbms.ErrUnknownPredicate.
	CodeUnknownPredicate
	// CodeClosed maps to dkbms.ErrClosed.
	CodeClosed
)

// CodeFor classifies an error for the wire.
func CodeFor(err error) ErrCode {
	switch {
	case errors.Is(err, dkbms.ErrParse):
		return CodeParse
	case errors.Is(err, dkbms.ErrUnknownPredicate):
		return CodeUnknownPredicate
	case errors.Is(err, dkbms.ErrSemantic):
		return CodeSemantic
	case errors.Is(err, dkbms.ErrClosed):
		return CodeClosed
	default:
		return CodeOther
	}
}

// Error is the ERROR reply carrying the server-side error text plus its
// stable classification code.
type Error struct {
	Code ErrCode
	Msg  string
}

// Encode renders the payload.
func (m Error) Encode() []byte {
	return appendString([]byte{byte(m.Code)}, m.Msg)
}

// DecodeError parses an ERROR payload.
func DecodeError(p []byte) (Error, error) {
	if len(p) < 1 {
		return Error{}, fmt.Errorf("wire: empty ERROR payload")
	}
	msg, rest, err := readString(p[1:])
	if err == nil {
		err = trailing(rest, MsgError)
	}
	return Error{Code: ErrCode(p[0]), Msg: msg}, err
}

// Err converts a decoded ERROR reply back into a Go error wrapping the
// sentinel its code names, so errors.Is works identically on both sides
// of the wire. The message is the server-side text verbatim (it already
// names the sentinel), not re-prefixed.
func (m Error) Err() error {
	var sentinel error
	switch m.Code {
	case CodeParse:
		sentinel = dkbms.ErrParse
	case CodeSemantic:
		sentinel = dkbms.ErrSemantic
	case CodeUnknownPredicate:
		sentinel = dkbms.ErrUnknownPredicate
	case CodeClosed:
		sentinel = dkbms.ErrClosed
	default:
		return fmt.Errorf("dkbd: %s", m.Msg)
	}
	return &codedError{sentinel: sentinel, msg: "dkbd: " + m.Msg}
}

// codedError reports the server's message verbatim while unwrapping to
// the sentinel the wire code names.
type codedError struct {
	sentinel error
	msg      string
}

func (e *codedError) Error() string { return e.msg }
func (e *codedError) Unwrap() error { return e.sentinel }

// Retracted is the RETRACTED reply: how many facts were removed.
type Retracted struct{ N int64 }

// Encode renders the payload.
func (m Retracted) Encode() []byte { return binary.AppendVarint(nil, m.N) }

// DecodeRetracted parses a RETRACTED payload.
func DecodeRetracted(p []byte) (Retracted, error) {
	n, rest, err := readVarint(p)
	if err == nil {
		err = trailing(rest, MsgRetracted)
	}
	return Retracted{N: n}, err
}

// Result is the RESULT reply: the answer relation plus evaluation
// provenance.
type Result struct {
	// Vars names the answer columns.
	Vars []string
	// Rows are the answer tuples.
	Rows []rel.Tuple
	// Optimized reports whether magic sets or factoring was applied.
	Optimized bool
	// Strategy is the LFP strategy used ("semi-naive" or "naive").
	Strategy string
	// Trace is the query's span tree, present only when the QUERY frame
	// carried the Trace option bit.
	Trace *obs.Span
	// QueryID echoes the request's query ID (client-sent or
	// server-minted), so the client can print the ID its query is
	// filed under in the server's log and slow-query ring.
	QueryID uint64
}

// Result payload flags.
const (
	resultOptimized = 1 << iota
	resultTrace
	resultQueryID
)

// Encode renders the payload.
func (m Result) Encode() []byte { return m.Append(nil) }

// Append appends the payload to buf: the flags, strategy and vars; the
// rows as one rel.AppendRows block, records in the storage encoding
// under the first row's column types; then the query ID and the trace
// when the flags say so.
func (m Result) Append(buf []byte) []byte {
	var flags byte
	if m.Optimized {
		flags |= resultOptimized
	}
	if m.Trace != nil {
		flags |= resultTrace
	}
	if m.QueryID != 0 {
		flags |= resultQueryID
	}
	buf = appendString(append(buf, flags), m.Strategy)
	buf = binary.AppendUvarint(buf, uint64(len(m.Vars)))
	for _, v := range m.Vars {
		buf = appendString(buf, v)
	}
	buf = rel.AppendRows(buf, m.Rows)
	if m.QueryID != 0 {
		buf = binary.AppendUvarint(buf, m.QueryID)
	}
	if m.Trace != nil {
		buf = appendSpan(buf, m.Trace)
	}
	return buf
}

// Span-tree wire limits: a decoded trace may not nest deeper than
// maxSpanDepth or carry more than maxSpanNodes spans, bounding the
// recursion and allocation a hostile peer can force (the frame length
// itself is already bounded by MaxFrameSize). A span takes at least
// minSpanBytes on the wire (empty name, zero duration and offset, no
// attributes, no children) and an attribute at least minAttrBytes
// (empty key, int tag, zero), so counts the bytes left cannot hold are
// refused before anything is allocated.
const (
	maxSpanDepth = 64
	maxSpanNodes = 1 << 20
	minSpanBytes = 5
	minAttrBytes = 3
)

func appendSpan(buf []byte, s *obs.Span) []byte {
	buf = appendString(buf, s.Name)
	buf = binary.AppendVarint(buf, int64(s.Duration))
	buf = binary.AppendVarint(buf, int64(s.Offset))
	buf = binary.AppendUvarint(buf, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		buf = appendString(buf, a.Key)
		if a.IsStr {
			buf = append(buf, 1)
			buf = appendString(buf, a.Str)
		} else {
			buf = append(buf, 0)
			buf = binary.AppendVarint(buf, a.Int)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Children)))
	for _, c := range s.Children {
		buf = appendSpan(buf, c)
	}
	return buf
}

func readSpan(buf []byte, depth int, nodes *int) (*obs.Span, []byte, error) {
	if depth > maxSpanDepth {
		return nil, nil, fmt.Errorf("wire: trace nests deeper than %d", maxSpanDepth)
	}
	*nodes++
	if *nodes > maxSpanNodes {
		return nil, nil, fmt.Errorf("wire: trace exceeds %d spans", maxSpanNodes)
	}
	s := &obs.Span{}
	var err error
	if s.Name, buf, err = readString(buf); err != nil {
		return nil, nil, err
	}
	var dur int64
	if dur, buf, err = readVarint(buf); err != nil {
		return nil, nil, err
	}
	s.Duration = time.Duration(dur)
	var off int64
	if off, buf, err = readVarint(buf); err != nil {
		return nil, nil, err
	}
	s.Offset = time.Duration(off)
	nattrs, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if nattrs > uint64(len(buf)/minAttrBytes) {
		return nil, nil, fmt.Errorf("wire: corrupt trace attr count")
	}
	s.Attrs = make([]obs.Attr, nattrs)
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Key, buf, err = readString(buf); err != nil {
			return nil, nil, err
		}
		if len(buf) < 1 {
			return nil, nil, fmt.Errorf("wire: corrupt trace attr")
		}
		tag := buf[0]
		buf = buf[1:]
		if tag > 1 {
			return nil, nil, fmt.Errorf("wire: corrupt trace attr tag %d", tag)
		}
		if tag == 1 {
			a.IsStr = true
			if a.Str, buf, err = readString(buf); err != nil {
				return nil, nil, err
			}
		} else {
			if a.Int, buf, err = readVarint(buf); err != nil {
				return nil, nil, err
			}
		}
	}
	nkids, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if nkids > uint64(len(buf)/minSpanBytes) {
		return nil, nil, fmt.Errorf("wire: corrupt trace child count")
	}
	// Children grow as they decode: every level of a chain claims against
	// the same bytes, so sizing each level by its claim would multiply
	// them by the depth.
	for i := uint64(0); i < nkids; i++ {
		var c *obs.Span
		if c, buf, err = readSpan(buf, depth+1, nodes); err != nil {
			return nil, nil, err
		}
		s.Children = append(s.Children, c)
	}
	return s, buf, nil
}

// DecodeResult parses a RESULT payload. Its rows come from
// rel.DecodeRows: views into one value slab and one string, aliasing
// nothing of p.
func DecodeResult(p []byte) (*Result, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("wire: empty RESULT payload")
	}
	if p[0]&^(resultOptimized|resultTrace|resultQueryID) != 0 {
		return nil, fmt.Errorf("wire: unknown RESULT flags %#x", p[0])
	}
	m := &Result{Optimized: p[0]&resultOptimized != 0}
	var err error
	buf := p[1:]
	if m.Strategy, buf, err = readString(buf); err != nil {
		return nil, err
	}
	nvars, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if nvars > uint64(len(buf)) {
		return nil, fmt.Errorf("wire: corrupt RESULT var count")
	}
	m.Vars = make([]string, nvars)
	for i := range m.Vars {
		if m.Vars[i], buf, err = readString(buf); err != nil {
			return nil, err
		}
	}
	if m.Rows, buf, err = rel.DecodeRows(buf); err != nil {
		return nil, err
	}
	if p[0]&resultQueryID != 0 {
		if m.QueryID, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if m.QueryID == 0 {
			return nil, fmt.Errorf("wire: RESULT flags a zero query ID")
		}
	}
	if p[0]&resultTrace != 0 {
		var nodes int
		if m.Trace, buf, err = readSpan(buf, 0, &nodes); err != nil {
			return nil, err
		}
	}
	if err := trailing(buf, MsgResult); err != nil {
		return nil, err
	}
	return m, nil
}

// ServerStats is the server's own traffic, read from its registry
// instruments by server.Server.Stats: sessions accepted, requests and
// error replies served, wire bytes in and out, and the request-latency
// p50 and p99, which are bucket bounds of the server.request_latency_ns
// histogram. It is not a wire message: the end-to-end benchmark reads
// it from an in-process server.
type ServerStats struct {
	TotalSessions int64
	Requests      int64
	Errors        int64
	BytesIn       int64
	BytesOut      int64
	P50           time.Duration
	P99           time.Duration
}
