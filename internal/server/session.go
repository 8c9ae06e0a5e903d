package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"dkbms"
	"dkbms/internal/obs"
	"dkbms/internal/wire"
)

// session is one connected client: a strict request/response loop over
// a single connection.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64       // server-unique session id
	log  *slog.Logger // child logger carrying session id + remote addr
	seq  uint64       // requests served so far (the request sequence number)
	// ctx is the serve context: shutdown cancels it, which aborts any
	// in-flight evaluation at its next LFP iteration boundary.
	ctx context.Context

	// rd reads requests, in is the buffer they are read into and out the
	// one replies are built in, header included. Both buffers are reused
	// from request to request; wire.Reuse drops one a large frame grew.
	rd      armedReader
	in, out []byte
}

func newSession(srv *Server, conn net.Conn) *session {
	id := srv.nextID.Add(1)
	s := &session{
		srv:  srv,
		conn: conn,
		id:   id,
		log:  srv.log.With("session", int64(id), "addr", conn.RemoteAddr().String()),
	}
	s.rd.s = s
	return s
}

// interruptIdleRead wakes the session if it is blocked waiting for the
// next request, by poisoning the read deadline. A session mid-request is
// not affected: it finishes, writes its response, and exits on the
// cancelled context at the top of its loop.
func (s *session) interruptIdleRead() {
	s.conn.SetReadDeadline(time.Now())
}

// serve runs the request loop until the peer disconnects, an I/O error
// occurs, or ctx is cancelled between requests.
func (s *session) serve(ctx context.Context) {
	defer s.conn.Close()
	s.ctx = ctx
	s.log.Debug("session opened")
	defer func() { s.log.Debug("session closed", "requests", s.seq) }()
	for {
		if ctx.Err() != nil {
			return
		}
		// Wait for the next request with no deadline (sessions may idle
		// indefinitely); once the header starts arriving, the rest of the
		// frame must show up within IOTimeout.
		s.conn.SetReadDeadline(time.Time{})
		s.rd.armed = false
		t, payload, n, err := wire.ReadFrame(&s.rd, s.in)
		if err != nil {
			if ctx.Err() == nil && err != io.EOF {
				s.log.Warn("read failed", "seq", s.seq, "err", err)
			}
			return
		}
		s.srv.bytesIn.Add(int64(n))
		s.seq++

		start := time.Now()
		s.srv.inFlight.Add(1)
		frame := s.handle(t, payload)
		s.in = wire.Reuse(payload)
		s.srv.inFlight.Add(-1)

		if s.srv.opts.IOTimeout > 0 {
			s.conn.SetWriteDeadline(time.Now().Add(s.srv.opts.IOTimeout))
		}
		respType := wire.MsgType(frame[4])
		wn, werr := wire.WriteFrame(s.conn, frame)
		s.out = wire.Reuse(frame)
		s.srv.bytesOut.Add(int64(wn))
		s.srv.requests.Inc()
		if respType == wire.MsgError {
			s.srv.errors.Inc()
		}
		s.srv.latency.ObserveDuration(time.Since(start))
		if werr != nil {
			s.log.Warn("write failed", "seq", s.seq, "type", t.String(), "err", werr)
			return
		}
		if s.log.Enabled(ctx, slog.LevelDebug) {
			s.log.Debug("request served", "seq", s.seq, "type", t.String(),
				"reply", respType.String(), "ms", time.Since(start))
		}
	}
}

// armedReader reads from the session connection, arming the per-request
// I/O deadline after the first byte of a frame arrives. The idle wait
// for that first byte carries no deadline (unless shutdown poisons it).
type armedReader struct {
	s     *session
	armed bool
}

func (r *armedReader) Read(p []byte) (int, error) {
	n, err := r.s.conn.Read(p)
	if n > 0 && !r.armed {
		r.armed = true
		if to := r.s.srv.opts.IOTimeout; to > 0 {
			r.s.conn.SetReadDeadline(time.Now().Add(to))
		}
	}
	return n, err
}

// handle dispatches one request and returns the reply frame, built in
// s.out.
func (s *session) handle(t wire.MsgType, payload []byte) []byte {
	switch t {
	case wire.MsgPing:
		return s.reply(wire.MsgPong, nil)

	case wire.MsgLoad:
		m, err := wire.DecodeLoad(payload)
		if err != nil {
			return s.errReply(err)
		}
		if err := s.srv.tb.Load(m.Src); err != nil {
			return s.errReply(err)
		}
		return s.reply(wire.MsgOK, nil)

	case wire.MsgQuery:
		m, err := wire.DecodeQuery(payload)
		if err != nil {
			return s.errReply(err)
		}
		return s.runQuery(m.Src, &m.Opts)

	case wire.MsgRetract:
		m, err := wire.DecodeRetract(payload)
		if err != nil {
			return s.errReply(err)
		}
		n, err := s.srv.tb.RetractSrc(m.Pattern)
		if err != nil {
			return s.errReply(err)
		}
		return s.reply(wire.MsgRetracted, wire.Retracted{N: int64(n)}.Encode())

	case wire.MsgStats:
		return s.reply(wire.MsgStatsReply, wire.Metrics(s.srv.reg.Snapshot()).Encode())

	case wire.MsgSlowlog:
		return s.reply(wire.MsgSlowlogReply, wire.Slowlog{
			ThresholdNs: int64(s.srv.slow.Threshold()),
			Capacity:    int64(s.srv.slow.Capacity()),
			Recorded:    s.srv.slow.Recorded(),
			Entries:     s.srv.slow.Snapshot(),
		}.Encode())

	case wire.MsgViews:
		views := s.srv.tb.Views()
		m := wire.Views{Views: make([]wire.ViewInfo, 0, len(views))}
		for _, v := range views {
			m.Views = append(m.Views, wire.ViewInfo{
				Query:           v.Query,
				Rows:            int64(v.Rows),
				Maintains:       v.Maintains,
				LastDeltaTuples: v.LastDeltaTuples,
				LastMaintain:    v.LastDuration,
			})
		}
		return s.reply(wire.MsgViewsReply, m.Encode())

	default:
		return s.errReply(fmt.Errorf("server: unknown request type %v", t))
	}
}

// runQuery serves one QUERY. It adopts the client's query ID or mints
// one, so every query is identifiable across the result echo, the
// structured log and the slow-query ring, and evaluates under the serve
// context, so shutdown cancels it.
func (s *session) runQuery(src string, opts *dkbms.QueryOptions) []byte {
	if opts.QueryID == 0 {
		opts.QueryID = obs.NewQueryID()
	}
	s.srv.queries.Inc()
	start := time.Now()
	res, err := s.srv.tb.QueryContext(s.ctx, src, opts)
	s.recordSlow(src, start, res, err, opts.QueryID)
	if err != nil {
		return s.errReply(err)
	}
	return s.resultFrame(res)
}

// recordSlow enters one query execution into the server's slow-query
// ring, keyed by the wire-propagated query ID. Failed queries are
// retained too (with the error text); traces ride along only when the
// query ran traced.
func (s *session) recordSlow(src string, start time.Time, res *dkbms.QueryResult, err error, qid uint64) {
	e := obs.SlowQuery{
		Query:   src,
		Start:   start,
		Latency: time.Since(start),
		Session: int64(s.id),
		QueryID: qid,
	}
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Cache = res.Cache
		e.Rows = int64(len(res.Rows))
		e.Iterations = res.Iterations()
		e.Trace = res.Trace.Root()
		e.Snapshot = res.Snapshot
	}
	s.srv.slow.Record(e)
	if s.log.Enabled(s.ctx, slog.LevelDebug) {
		s.log.Debug("query done", "query_id", obs.FormatQueryID(qid),
			"ms", e.Latency, "cache", e.Cache, "err", e.Err)
	}
}

// reply builds in s.out the frame of a reply whose payload is encoded.
func (s *session) reply(t wire.MsgType, payload []byte) []byte {
	return append(wire.Frame(s.out, t), payload...)
}

func (s *session) errReply(err error) []byte {
	return s.reply(wire.MsgError, wire.Error{Code: wire.CodeFor(err), Msg: err.Error()}.Encode())
}

// resultFrame encodes a RESULT frame straight into s.out: once the
// buffer has grown to the answer, a memo hit is encoded without
// allocating.
func (s *session) resultFrame(res *dkbms.QueryResult) []byte {
	return wire.Result{
		Vars:      res.Vars,
		Rows:      res.Rows,
		Optimized: res.Optimized,
		Strategy:  res.Strategy.String(),
		Trace:     res.Trace.Root(),
		QueryID:   res.QueryID,
	}.Append(wire.Frame(s.out, wire.MsgResult))
}
