// Package server is the dkbd network front-end: a TCP server exposing a
// shared ConcurrentTestbed to many client sessions over the wire
// protocol (internal/wire).
//
// Each accepted connection becomes a session goroutine running a strict
// request/response loop. Read-only traffic (QUERY, EXECP, STATS, PING)
// runs concurrently across sessions, each query pinned to an immutable
// engine snapshot; LOAD and RETRACT serialize on the single-writer
// commit path and publish new snapshots without blocking readers. A
// connection-limit semaphore is
// acquired before Accept, so excess clients queue in the listen backlog
// (backpressure) instead of being half-served. Shutdown is graceful: on
// context cancel the listener closes immediately (new connections are
// refused), in-flight requests complete and write their responses, and
// Serve returns only when every session has drained.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dkbms"
	"dkbms/internal/obs"
)

// Options tune a server.
type Options struct {
	// MaxConns caps simultaneous sessions; further connections wait in
	// the listen backlog. 0 selects DefaultMaxConns.
	MaxConns int
	// IOTimeout bounds single reads of a request body (after its first
	// byte) and single response writes; it guards sessions against
	// stalled peers, not against long evaluations. 0 selects
	// DefaultIOTimeout; negative disables deadlines.
	IOTimeout time.Duration
	// Logger receives structured connection-level diagnostics, annotated
	// per session with the remote address, session id and request
	// sequence number. nil discards them.
	Logger *obs.Logger
	// SlowLogSize is the slow-query ring capacity; 0 selects
	// obs.DefaultSlowLogSize.
	SlowLogSize int
	// SlowThreshold is the minimum latency a query must reach to enter
	// the slow log. 0 retains every query (the ring then holds the most
	// recent SlowLogSize queries).
	SlowThreshold time.Duration
	// SampleInterval is the retained-telemetry sampling period: every
	// interval the time-series ring snapshots the whole metrics registry
	// so /timeseries (and dkbtop's sparklines) can serve windowed rates
	// and quantiles. 0 selects obs.DefaultSampleInterval; negative
	// disables retention entirely (no sampler goroutine runs).
	SampleInterval time.Duration
	// SampleWindow is the ring capacity in samples. 0 selects
	// obs.DefaultSampleWindow; negative disables retention.
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
	log  *obs.Logger  // nil discards (obs loggers are nil-safe)
	slow *obs.SlowLog // slow-query ring, served by SLOWLOG and /slowlog

	stats  counters
	reg    *obs.Registry
	ts     *obs.TimeSeries // retained telemetry; nil when sampling is disabled
	nextID atomic.Uint64   // session ids

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
	s := &Server{
		tb:       tb,
		opts:     opts,
		log:      opts.Logger,
		slow:     obs.NewSlowLog(opts.SlowLogSize, opts.SlowThreshold),
		sessions: make(map[*session]struct{}),
	}
	s.initRegistry()
	interval, window := opts.SampleInterval, opts.SampleWindow
	if interval == 0 {
		interval = obs.DefaultSampleInterval
	}
	if window == 0 {
		window = obs.DefaultSampleWindow
	}
	// A negative interval or window leaves s.ts nil: every read serves
	// the disabled shape and Serve starts no sampler goroutine.
	s.ts = obs.NewTimeSeries(s.reg, interval, window)
	return s
}

// initRegistry builds the server's metrics registry: the request
// counters and the latency histogram live there directly; the plan
// cache, buffer pool, rule-base generation and snapshot store are read
// through gauge callbacks at snapshot time (callbacks run outside the
// registry lock, so pinning an engine snapshot inside them is safe).
func (s *Server) initRegistry() {
	r := obs.NewRegistry()
	s.reg = r
	s.stats.lat = r.Histogram("server.request_latency_ns")
	s.stats.queries = r.Counter("query.count")
	obs.RegisterRuntimeMetrics(r)
	gauge := func(name string, fn func() int64) { r.GaugeFunc(name, fn) }
	gauge("server.sessions_active", s.stats.activeSessions.Load)
	gauge("server.sessions_total", s.stats.totalSessions.Load)
	gauge("server.in_flight", s.stats.inFlight.Load)
	gauge("server.requests", s.stats.requests.Load)
	gauge("server.errors", s.stats.errors.Load)
	gauge("server.bytes_in", s.stats.bytesIn.Load)
	gauge("server.bytes_out", s.stats.bytesOut.Load)
	gauge("plan.result_hits", func() int64 { return s.tb.PlanStats().ResultHits })
	gauge("plan.hits", func() int64 { return s.tb.PlanStats().PlanHits })
	gauge("plan.misses", func() int64 { return s.tb.PlanStats().Misses })
	gauge("plan.entries", func() int64 { return s.tb.PlanStats().Entries })
	gauge("pool.hits", func() int64 { return s.tb.PagerStats().Hits })
	gauge("pool.misses", func() int64 { return s.tb.PagerStats().Misses })
	gauge("pool.evictions", func() int64 { return s.tb.PagerStats().Evictions })
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
	gauge("snapshot.reclaimed_tables", func() int64 { return s.tb.SnapshotStats().ReclaimedTables })
	gauge("snapshot.reclaim_errors", func() int64 { return s.tb.SnapshotStats().ReclaimErrors })
	gauge("snapshot.commits", func() int64 { return s.tb.SnapshotStats().Commits })
	gauge("snapshot.copied_tables", func() int64 { return s.tb.SnapshotStats().CopiedTables })
	gauge("snapshot.writer_stall_ns", func() int64 { return int64(s.tb.SnapshotStats().WriterStall) })
	gauge("slowlog.recorded", s.slow.Recorded)
	gauge("sched.workers", func() int64 { return int64(s.tb.SchedStats().Workers) })
	gauge("sched.clients", func() int64 { return int64(s.tb.SchedStats().Clients) })
	gauge("sched.queued", func() int64 { return int64(s.tb.SchedStats().Queued) })
	gauge("sched.submitted", func() int64 { return s.tb.SchedStats().Submitted })
	gauge("sched.completed", func() int64 { return s.tb.SchedStats().Completed })
	gauge("sched.stolen", func() int64 { return s.tb.SchedStats().Stolen })
	gauge("matview.live", func() int64 { return s.tb.MatViewStats().Live })
	gauge("matview.maintained", func() int64 { return s.tb.MatViewStats().Maintained })
	gauge("matview.rederives", func() int64 { return s.tb.MatViewStats().Rederives })
	gauge("matview.delta_tuples", func() int64 { return s.tb.MatViewStats().DeltaTuples })
	gauge("matview.maintain_ns", func() int64 { return int64(s.tb.MatViewStats().MaintainTime) })
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

// TimeSeries exposes the retained-telemetry ring (nil when sampling is
// disabled; the obs methods are nil-safe).
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
	s.stats.activeSessions.Add(1)
	s.stats.totalSessions.Add(1)
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		sess.interruptIdleRead()
	}
}

func (s *Server) untrack(sess *session) {
	s.stats.activeSessions.Add(-1)
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

// Stats returns a snapshot of the server counters, including request
// latency percentiles over the recent window, the shared plan cache's
// hit counters and the buffer pool's aggregated shard counters.
func (s *Server) Stats() Stats {
	return s.stats.snapshot(s.tb.Generation(), s.tb.PlanStats(), s.tb.PagerStats(),
		s.tb.SnapshotStats(), s.tb.SchedStats(), s.tb.MatViewStats())
}
