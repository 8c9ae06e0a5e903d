// Command dkbd serves a data/knowledge base over TCP to concurrent
// clients, turning the single-process testbed into a shared server: one
// D/KB, many sessions. Queries from different sessions evaluate
// concurrently; loads and retractions serialize against them.
//
// Usage:
//
//	dkbd                          # in-memory D/KB on :7407, debug HTTP on 127.0.0.1:7408
//	dkbd -db family.db -addr :9000
//	dkbd -load family.dl          # preload a program at startup
//	dkbd -debug-addr :9001        # move the debug listener
//	dkbd -debug-addr ""           # no debug listener
//	dkbd -log-level debug -log-format json
//	dkbd -slow-threshold 10ms     # only retain queries at or above 10ms
//
// The query port carries PING, LOAD, QUERY and RETRACT. Telemetry is
// served by the debug listener alone: /metrics (Prometheus text),
// /metrics.json, /slowlog, /views, /healthz and /debug/{trace,pprof}.
// Its endpoints serve current values; dkbd keeps no history of its
// metrics. dkbtop takes rates from its own successive polls, and a
// Prometheus scraper of /metrics keeps history across longer spans.
//
// dkbd shuts down gracefully on SIGINT/SIGTERM: the listener closes at
// once, in-flight requests finish and receive their responses, then the
// debug HTTP server (if any) is drained and the process exits. Connect
// with `dkbsh -connect HOST:PORT` or the internal/client package; watch
// a running server with `dkbtop` (its default -addr is dkbd's default
// -debug-addr).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dkbms"
	"dkbms/internal/server"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":7407", "listen address")
	flag.StringVar(&cfg.dbPath, "db", "", "database file (empty = in-memory)")
	flag.StringVar(&cfg.load, "load", "", "Horn-clause program to load at startup")
	flag.IntVar(&cfg.maxConns, "maxconns", server.DefaultMaxConns, "max simultaneous sessions")
	flag.DurationVar(&cfg.ioTimeout, "iotimeout", server.DefaultIOTimeout, "per-request I/O deadline (negative = no deadline)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "127.0.0.1:7408", "HTTP debug listen address serving /metrics /metrics.json /debug/trace /slowlog /views /healthz /debug/pprof (empty = disabled)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug|info|warn|error")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format: text|json")
	flag.IntVar(&cfg.slowSize, "slowlog-size", 0, "slow-query ring capacity (0 = default)")
	flag.DurationVar(&cfg.slowThreshold, "slow-threshold", 0, "minimum latency to enter the slow-query log (0 retains every query)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dkbd: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr, dbPath, load  string
	maxConns            int
	ioTimeout           time.Duration
	debugAddr           string
	logLevel, logFormat string
	slowSize            int
	slowThreshold       time.Duration
}

// buildLogger turns the -log-level/-log-format flags into the server's
// structured logger, writing to w.
func buildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text|json)", format)
	}
}

func run(cfg config) error {
	logger, err := buildLogger(os.Stderr, cfg.logLevel, cfg.logFormat)
	if err != nil {
		return err
	}

	var tb *dkbms.Testbed
	if cfg.dbPath == "" {
		tb = dkbms.NewMemory()
	} else {
		tb, err = dkbms.Open(cfg.dbPath)
		if err != nil {
			return err
		}
	}
	ctb := dkbms.NewConcurrent(tb)
	defer ctb.Close()

	if cfg.load != "" {
		src, err := os.ReadFile(cfg.load)
		if err != nil {
			return err
		}
		if err := ctb.Load(string(src)); err != nil {
			return fmt.Errorf("load %s: %w", cfg.load, err)
		}
		logger.Info("program loaded", "file", cfg.load)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New(ctb, server.Options{
		MaxConns:      cfg.maxConns,
		IOTimeout:     cfg.ioTimeout,
		Logger:        logger,
		SlowLogSize:   cfg.slowSize,
		SlowThreshold: cfg.slowThreshold,
	})

	// The debug HTTP server is shut down after the TCP side drains, with
	// a short deadline: a hung profile download must not wedge exit. Its
	// port is bound before anything is served, so a taken address stops
	// dkbd instead of leaving it running without its telemetry.
	var dbgDone func()
	if cfg.debugAddr != "" {
		lis, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener (-debug-addr \"\" turns it off): %w", err)
		}
		dbg := &http.Server{Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.Serve(lis); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server failed", "addr", cfg.debugAddr, "err", err)
			}
		}()
		dbgDone = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := dbg.Shutdown(sctx); err != nil {
				dbg.Close()
			}
		}
		fmt.Printf("dkbd: debug endpoints on http://%s/{metrics,metrics.json,slowlog,views,healthz,debug/trace,debug/pprof}\n", cfg.debugAddr)
	}

	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, cfg.addr, ready) }()
	select {
	case a := <-ready:
		fmt.Printf("dkbd: serving on %s (max %d sessions)\n", a, cfg.maxConns)
	case err := <-done:
		if dbgDone != nil {
			dbgDone()
		}
		return err
	}

	err = <-done
	if dbgDone != nil {
		dbgDone()
	}
	st := srv.Stats()
	fmt.Printf("dkbd: shut down after %d sessions, %d requests (%d errors)\n",
		st.TotalSessions, st.Requests, st.Errors)
	return err
}
