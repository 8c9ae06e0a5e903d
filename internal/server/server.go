// Package server is the dkbd network front-end: a TCP server exposing a
// shared ConcurrentTestbed to many client sessions over the wire
// protocol (internal/wire).
//
// Each accepted connection becomes a session goroutine running a strict
// request/response loop. Read-only traffic (QUERY, STATS, SLOWLOG,
// VIEWS, PING) runs concurrently across sessions, each query pinned to
// an immutable engine snapshot and served through the shared plan
// cache; LOAD and RETRACT serialize on the single-writer commit path
// and publish new snapshots without blocking readers. A
// connection-limit semaphore is acquired before Accept, so excess
// clients queue in the listen backlog
// (backpressure) instead of being half-served. Shutdown is graceful: on
// context cancel the listener closes immediately (new connections are
// refused), in-flight requests complete and write their responses, and
// Serve returns only when every session has drained.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dkbms"
	"dkbms/internal/obs"
	"dkbms/internal/wire"
)

// Options tune a server.
type Options struct {
	// MaxConns caps simultaneous sessions; further connections wait in
	// the listen backlog. 0 selects DefaultMaxConns.
	MaxConns int
	// IOTimeout bounds single reads of a request body (after its first
	// byte) and single response writes; it guards sessions against
	// stalled peers, not against long evaluations. 0 selects
	// DefaultIOTimeout; a negative value disables deadlines.
	IOTimeout time.Duration
	// Logger receives structured connection-level diagnostics, annotated
	// per session with the remote address, session id and request
	// sequence number. nil discards them.
	Logger *slog.Logger
	// SlowLogSize is the slow-query ring capacity; 0 selects
	// obs.DefaultSlowLogSize.
	SlowLogSize int
	// SlowThreshold is the minimum latency a query must reach to enter
	// the slow log. 0 retains every query (the ring then holds the most
	// recent SlowLogSize queries).
	SlowThreshold time.Duration
	// SampleInterval is the retained-telemetry sampling period: every
	// interval the time-series ring snapshots the whole metrics registry
	// so /timeseries (and dkbtop's rates and sparklines) can serve
	// windowed rates and quantiles. <= 0 selects obs.DefaultSampleInterval.
	SampleInterval time.Duration
	// SampleWindow is the ring capacity in samples. <= 0 selects
	// obs.DefaultSampleWindow.
	SampleWindow int
}

// Default option values.
const (
	DefaultMaxConns  = 64
	DefaultIOTimeout = 30 * time.Second
)

// Server serves one ConcurrentTestbed over TCP.
type Server struct {
	tb   *dkbms.ConcurrentTestbed
	opts Options
	log  *slog.Logger
	slow *obs.SlowLog // slow-query ring, served by SLOWLOG and /slowlog

	reg    *obs.Registry
	ts     *obs.TimeSeries // retained telemetry
	nextID atomic.Uint64   // session ids

	// The server's own telemetry lives in reg as these instruments; STATS,
	// /metrics, the time-series ring and Stats all read them there.
	sessionsActive, inFlight                                    *obs.Gauge
	sessionsTotal, requests, errors, bytesIn, bytesOut, queries *obs.Counter
	latency                                                     *obs.Histogram

	mu       sync.Mutex
	sessions map[*session]struct{}
	draining bool
}

// New builds a server over the testbed. The server does not own the
// testbed; closing it after Serve returns is the caller's job.
func New(tb *dkbms.ConcurrentTestbed, opts Options) *Server {
	if opts.MaxConns <= 0 {
		opts.MaxConns = DefaultMaxConns
	}
	if opts.IOTimeout == 0 {
		opts.IOTimeout = DefaultIOTimeout
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(discard{})
	}
	s := &Server{
		tb:       tb,
		opts:     opts,
		log:      opts.Logger,
		slow:     obs.NewSlowLog(opts.SlowLogSize, opts.SlowThreshold),
		sessions: make(map[*session]struct{}),
	}
	s.initRegistry()
	s.ts = obs.NewTimeSeries(s.reg, opts.SampleInterval, opts.SampleWindow)
	return s
}

// discard is the slog handler of a server built without a Logger.
type discard struct{}

func (discard) Enabled(context.Context, slog.Level) bool  { return false }
func (discard) Handle(context.Context, slog.Record) error { return nil }
func (d discard) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discard) WithGroup(string) slog.Handler           { return d }

// initRegistry builds the server's metrics registry: the server's own
// counters and the latency histogram live there directly; the plan
// cache, buffer pool, rule-base generation and snapshot store are read
// through callbacks at snapshot time (callbacks run outside the
// registry lock, so pinning an engine snapshot inside them is safe).
func (s *Server) initRegistry() {
	r := obs.NewRegistry()
	s.reg = r
	s.sessionsActive = r.Gauge("server.sessions_active")
	s.sessionsTotal = r.Counter("server.sessions_total")
	s.inFlight = r.Gauge("server.in_flight")
	s.requests = r.Counter("server.requests")
	s.errors = r.Counter("server.errors")
	s.bytesIn = r.Counter("server.bytes_in")
	s.bytesOut = r.Counter("server.bytes_out")
	s.latency = r.Histogram("server.request_latency_ns")
	s.queries = r.Counter("query.count")
	obs.RegisterRuntimeMetrics(r)
	counter := func(name string, fn func() int64) { r.Func(name, obs.KindCounter, fn) }
	gauge := func(name string, fn func() int64) { r.Func(name, obs.KindGauge, fn) }
	counter("plan.result_hits", func() int64 { return s.tb.PlanStats().ResultHits })
	counter("plan.hits", func() int64 { return s.tb.PlanStats().PlanHits })
	counter("plan.misses", func() int64 { return s.tb.PlanStats().Misses })
	gauge("plan.entries", func() int64 { return s.tb.PlanStats().Entries })
	counter("pool.hits", func() int64 { return s.tb.PagerStats().Hits })
	counter("pool.misses", func() int64 { return s.tb.PagerStats().Misses })
	counter("pool.evictions", func() int64 { return s.tb.PagerStats().Evictions })
	gauge("pool.hit_rate_pct", func() int64 {
		st := s.tb.PagerStats()
		if st.Hits+st.Misses == 0 {
			return 100
		}
		return st.Hits * 100 / (st.Hits + st.Misses)
	})
	gauge("dkb.generation", func() int64 { return int64(s.tb.Generation()) })
	gauge("snapshot.gen", func() int64 { return int64(s.tb.SnapshotStats().Gen) })
	gauge("snapshot.active_readers", func() int64 { return s.tb.SnapshotStats().ActiveReaders })
	gauge("snapshot.retired", func() int64 { return s.tb.SnapshotStats().RetiredSnapshots })
	gauge("snapshot.live_versions", func() int64 { return s.tb.SnapshotStats().LiveVersions })
	gauge("snapshot.reclaim_backlog", func() int64 { return s.tb.SnapshotStats().ReclaimBacklog })
	counter("snapshot.reclaimed_tables", func() int64 { return s.tb.SnapshotStats().ReclaimedTables })
	counter("snapshot.reclaim_errors", func() int64 { return s.tb.SnapshotStats().ReclaimErrors })
	counter("snapshot.commits", func() int64 { return s.tb.SnapshotStats().Commits })
	counter("snapshot.copied_tables", func() int64 { return s.tb.SnapshotStats().CopiedTables })
	counter("snapshot.writer_stall_ns", func() int64 { return int64(s.tb.SnapshotStats().WriterStall) })
	counter("slowlog.recorded", s.slow.Recorded)
	gauge("sched.slots", func() int64 { return int64(s.tb.SchedStats().Slots) })
	gauge("sched.running", func() int64 { return int64(s.tb.SchedStats().Running) })
	counter("sched.submitted", func() int64 { return s.tb.SchedStats().Submitted })
	counter("sched.completed", func() int64 { return s.tb.SchedStats().Completed })
	counter("sched.stolen", func() int64 { return s.tb.SchedStats().Stolen })
	gauge("matview.live", func() int64 { return s.tb.MatViewStats().Live })
	counter("matview.maintained", func() int64 { return s.tb.MatViewStats().Maintained })
	counter("matview.rederives", func() int64 { return s.tb.MatViewStats().Rederives })
	counter("matview.delta_tuples", func() int64 { return s.tb.MatViewStats().DeltaTuples })
	counter("matview.maintain_ns", func() int64 { return int64(s.tb.MatViewStats().MaintainTime) })
	// The engine floor — per-table heap traffic, per-index tree shape,
	// per-shard pool counters — is a dynamic metric set following the
	// live schema, contributed through a collector.
	r.CollectorFunc("engine", s.tb.EngineMetrics)
}

// Registry exposes the server's metrics registry (the dkbd debug HTTP
// endpoint serves its snapshot as JSON).
func (s *Server) Registry() *obs.Registry { return s.reg }

// SlowLog exposes the server's slow-query ring (served over the wire by
// SLOWLOG and over HTTP by the /slowlog debug endpoint).
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// TimeSeries exposes the retained-telemetry ring.
func (s *Server) TimeSeries() *obs.TimeSeries { return s.ts }

// ListenAndServe listens on addr ("host:port") and serves until ctx is
// cancelled. The listener's actual address (useful with ":0") is sent on
// ready, if non-nil, once accepting.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- net.Addr) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- lis.Addr()
	}
	return s.Serve(ctx, lis)
}

// Serve accepts sessions on lis until ctx is cancelled, then drains and
// returns nil. The listener is closed by Serve.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	// Closing the listener is what breaks the Accept loop; do it the
	// moment the context falls.
	stop := context.AfterFunc(ctx, func() {
		lis.Close()
		s.beginDrain()
	})
	defer stop()

	// Retained telemetry samples for the server's lifetime; Stop waits
	// for the sampler goroutine, so none outlives Serve.
	s.ts.Start()
	defer s.ts.Stop()

	sem := make(chan struct{}, s.opts.MaxConns)
	var wg sync.WaitGroup
	for {
		// Backpressure: take a session slot before accepting, so that at
		// MaxConns sessions the kernel queues further clients instead of
		// this loop accepting connections it cannot serve.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return nil
		}
		conn, err := lis.Accept()
		if err != nil {
			<-sem
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				wg.Wait()
				return nil
			}
			// Transient accept failure (e.g. EMFILE): log and go on.
			s.log.Warn("accept failed", "err", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		sess := newSession(s, conn)
		s.track(sess)
		wg.Add(1)
		go func() {
			defer func() {
				s.untrack(sess)
				<-sem
				wg.Done()
			}()
			sess.serve(ctx)
		}()
	}
}

// track registers a live session; if the server is already draining the
// session is told to finish after its current request.
func (s *Server) track(sess *session) {
	s.sessionsActive.Add(1)
	s.sessionsTotal.Inc()
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		sess.interruptIdleRead()
	}
}

func (s *Server) untrack(sess *session) {
	s.sessionsActive.Add(-1)
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// beginDrain wakes every session blocked waiting for its next request.
// Sessions mid-request are untouched — they finish, respond, then see
// the cancelled context and exit.
func (s *Server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.interruptIdleRead()
	}
}

// Stats reads the server's own traffic from its registry instruments.
// The latency percentiles are bucket bounds of the request-latency
// histogram over the server's lifetime, the numbers /metrics, dkbtop
// and STATS report.
func (s *Server) Stats() wire.ServerStats {
	return wire.ServerStats{
		TotalSessions: s.sessionsTotal.Load(),
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		P50:           time.Duration(s.latency.Quantile(0.50)),
		P99:           time.Duration(s.latency.Quantile(0.99)),
	}
}
