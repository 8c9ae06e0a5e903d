package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/obs"
	"dkbms/internal/server"
	"dkbms/internal/wire"
)

const baseProgram = `
parent(c0, c1). parent(c1, c2). parent(c2, c3). parent(c3, c4).
parent(c4, c5). parent(c5, c6). parent(c6, c7). parent(c7, c8).
parent(c8, c9).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// startServer runs a server over tb on a loopback port and returns its
// address, a cancel func, and the channel Serve's result lands on.
func startServer(t *testing.T, tb *dkbms.ConcurrentTestbed, opts server.Options) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	srv := server.New(tb, opts)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		return addr.String(), cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("server did not start: %v", err)
		return "", nil, nil
	}
}

// rowSet flattens a result into a sorted, comparable form.
func rowSet(rows []string) string {
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func wireRows(res *wire.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, tu := range res.Rows {
		var cells []string
		for _, v := range tu {
			cells = append(cells, v.String())
		}
		out = append(out, strings.Join(cells, ","))
	}
	return out
}

func localRows(res *dkbms.QueryResult) []string {
	out := make([]string, 0, len(res.Rows))
	for _, tu := range res.Rows {
		var cells []string
		for _, v := range tu {
			cells = append(cells, v.String())
		}
		out = append(out, strings.Join(cells, ","))
	}
	return out
}

func TestServerBasic(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("?- ancestor(c0, X).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("query returned %d rows, want 9", len(res.Rows))
	}

	// The remote result must match a single-threaded testbed exactly.
	ref := dkbms.NewMemory()
	defer ref.Close()
	if err := ref.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query("?- ancestor(c0, X).", &dkbms.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := rowSet(wireRows(res)), rowSet(localRows(want)); got != exp {
		t.Fatalf("remote result diverges from local:\nremote:\n%s\nlocal:\n%s", got, exp)
	}

	// A repeated query sees the facts loaded since its first run.
	r1, err := c.Query("?- ancestor(X, c9).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 9 {
		t.Fatalf("first query: %d rows, want 9", len(r1.Rows))
	}
	if err := c.Load("parent(pre, c0)."); err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query("?- ancestor(X, c9).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != 10 {
		t.Fatalf("query after load: %d rows, want 10", len(r2.Rows))
	}

	// Retraction round-trips with a count.
	n, err := c.Retract("parent(pre, X)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("retracted %d, want 1", n)
	}

	// Errors come back as errors, not dead connections.
	if _, err := c.Query("?- undefined_pred(X).", wire.QueryOpts{}); err == nil {
		t.Fatal("query on undefined predicate succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after server-side error: %v", err)
	}

	// Repeated identical QUERYs on a standing D/KB hit the shared plan
	// cache, and the reply surfaces it along with buffer-pool traffic.
	for i := 0; i < 3; i++ {
		if _, err := c.Query("?- ancestor(c0, X).", wire.QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	st := stats(t, c)
	if st["server.requests"] < 8 || st["server.errors"] < 1 || st["server.sessions_active"] != 1 {
		t.Fatalf("implausible stats: %v", st)
	}
	if st["server.bytes_in"] == 0 || st["server.bytes_out"] == 0 {
		t.Fatalf("traffic counters empty: %v", st)
	}
	if st["plan.result_hits"] < 2 || st["plan.misses"] == 0 {
		t.Fatalf("plan-cache counters missing from stats: %v", st)
	}
	if st["pool.hits"] == 0 {
		t.Fatalf("buffer-pool counters missing from stats: %v", st)
	}
}

// stats fetches the server's STATS reply as metric values by name.
func stats(t *testing.T, c *client.Client) map[string]int64 {
	t.Helper()
	ms, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// TestStatsReplyIsTheRegistry: STATS serves the server's metrics
// registry, so a client sees exactly the names the registry snapshot
// holds, the engine collectors' per-table and per-shard series
// included, and the latency histogram with its percentiles.
func TestStatsReplyIsTheRegistry(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	srv := server.New(tb, server.Options{})
	addr, cancel, done := startServerWith(t, srv)
	defer func() { cancel(); <-done }()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query("?- ancestor(c0, X).", wire.QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []obs.Metric) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	want := names(srv.Registry().Snapshot())
	if !slices.Equal(names(got), want) {
		t.Fatalf("STATS names differ from the registry's:\nSTATS:    %v\nregistry: %v", names(got), want)
	}
	var table, shard bool
	for _, m := range got {
		table = table || strings.HasPrefix(m.Name, "table.")
		shard = shard || strings.HasPrefix(m.Name, "pool.shard.")
		if m.Name == "server.request_latency_ns" &&
			(m.Kind != obs.KindHistogram || m.Value < 4 || m.P50 <= 0 || m.P99 < m.P50 || m.Sum <= 0) {
			t.Errorf("latency histogram over the wire: %+v", m)
		}
	}
	if !table || !shard {
		t.Fatalf("collector series missing from STATS (table=%v shard=%v)", table, shard)
	}
}

// TestEveryRequestDispatched sends every request opcode, each with an
// empty payload. A named opcode must reach its own arm of the dispatch
// (an answer or a decode error); one with no String name lies past the
// last request and must get the "unknown request type" error.
func TestEveryRequestDispatched(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for op := wire.MsgType(1); op < wire.MsgPong; op++ {
		if _, err := wire.WriteFrame(conn, wire.Frame(nil, op)); err != nil {
			t.Fatal(err)
		}
		rt, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		unknown := false
		if rt == wire.MsgError {
			e, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			unknown = strings.Contains(e.Msg, "unknown request type")
		}
		switch named := !strings.HasPrefix(op.String(), "MsgType("); {
		case named && unknown:
			t.Errorf("request %v has no dispatch arm", op)
		case !named && !unknown:
			t.Errorf("opcode %d past the last request got %v, not the unknown-type error", op, rt)
		}
	}
}

// TestServerStress runs 32 concurrent sessions mixing queries and
// occasional loads, then checks the final state against a
// single-threaded testbed.
func TestServerStress(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startServer(t, tb, server.Options{MaxConns: 64})
	defer func() { cancel(); <-done }()

	const (
		workers = 32
		iters   = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var loadedMu sync.Mutex
	var loaded []string

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("worker %d: dial: %w", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				switch {
				// A few writers extend the chain below c9; everyone else
				// reads. Facts are only added, so ancestor(c0, _) grows
				// monotonically from its base size of 9.
				case w%8 == 0 && i%4 == 3:
					fact := fmt.Sprintf("parent(c9, x%d_%d).", w, i)
					if err := c.Load(fact); err != nil {
						errs <- fmt.Errorf("worker %d: load: %w", w, err)
						return
					}
					loadedMu.Lock()
					loaded = append(loaded, fact)
					loadedMu.Unlock()
				default:
					res, err := c.Query("?- ancestor(c0, X).", wire.QueryOpts{})
					if err != nil {
						errs <- fmt.Errorf("worker %d: query: %w", w, err)
						return
					}
					if len(res.Rows) < 9 {
						errs <- fmt.Errorf("worker %d: query saw %d rows, want >= 9", w, len(res.Rows))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Final state must be byte-identical to a single-threaded testbed
	// that performed the same loads.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("?- ancestor(c0, X).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ref := dkbms.NewMemory()
	defer ref.Close()
	if err := ref.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	loadedMu.Lock()
	refLoads := strings.Join(loaded, "\n")
	loadedMu.Unlock()
	if err := ref.Load(refLoads); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query("?- ancestor(c0, X).", &dkbms.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := rowSet(wireRows(res)), rowSet(localRows(want)); got != exp {
		t.Fatalf("final state diverges from single-threaded reference:\nserver:\n%s\nreference:\n%s", got, exp)
	}

	st := stats(t, c)
	if st["server.sessions_total"] < workers {
		t.Fatalf("server saw %d sessions, want >= %d", st["server.sessions_total"], workers)
	}
	if st["server.errors"] != 0 {
		t.Fatalf("server recorded %d request errors during stress", st["server.errors"])
	}
}

// TestGracefulShutdown checks that cancelling the context wakes idle
// sessions, refuses new connections, and returns from Serve.
func TestGracefulShutdown(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{})

	// A few idle sessions block in their read loops.
	var clients []*client.Client
	for i := 0; i < 4; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel with idle sessions")
	}

	// Existing sessions are gone and new connections are refused.
	if err := clients[0].Ping(); err == nil {
		t.Fatal("ping succeeded on a drained session")
	}
	if c, err := client.Dial(addr); err == nil {
		defer c.Close()
		if err := c.Ping(); err == nil {
			t.Fatal("new session served after shutdown")
		}
	}
}

// TestMaxConnsBackpressure checks that over-limit clients queue rather
// than fail, and get served once a slot frees.
func TestMaxConnsBackpressure(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{MaxConns: 1})
	defer func() { cancel(); <-done }()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}

	// The second client queues in the listen backlog: its ping only
	// completes after c1 disconnects.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	pinged := make(chan error, 1)
	go func() { pinged <- c2.Ping() }()
	select {
	case err := <-pinged:
		t.Fatalf("second session served while at MaxConns (ping: %v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("queued session failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued session never served after slot freed")
	}
}

// TestQueryTraceOverWire sets the TRACE option bit on a QUERY frame and
// checks the span tree comes back in the RESULT: per-iteration deltas
// summing to the answer count, exactly as in a local traced query.
func TestQueryTraceOverWire(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load(baseProgram); err != nil {
		t.Fatal(err)
	}

	// Unbound ancestor over the 9-edge chain: closure = 9*10/2 = 45
	// tuples, each new in exactly one iteration.
	res, err := c.Query("?- ancestor(X, Y).", wire.QueryOpts{NoOptimize: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 45 {
		t.Fatalf("%d rows, want 45", len(res.Rows))
	}
	if res.Trace == nil {
		t.Fatal("TRACE bit set but RESULT carries no span tree")
	}
	var sum int64
	for _, it := range res.Trace.FindAll("iteration ") {
		if d, ok := it.Int("delta(ancestor)"); ok {
			sum += d
		}
	}
	if sum != 45 {
		t.Fatalf("wire-decoded iteration deltas sum to %d, want 45:\n%s",
			sum, obs.Adopt(res.Trace).Format())
	}
	if res.Trace.Find("compile") == nil || res.Trace.Find("eval") == nil {
		t.Fatalf("wire trace lacks compile/eval spans:\n%s", obs.Adopt(res.Trace).Format())
	}

	// Without the bit the result must stay trace-free, and the traced
	// exchange must not have poisoned the plan cache's memoized answer.
	plain, err := c.Query("?- ancestor(X, Y).", wire.QueryOpts{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced query returned a trace")
	}
	if len(plain.Rows) != 45 {
		t.Fatalf("untraced query after traced one: %d rows, want 45", len(plain.Rows))
	}
}

// TestTypedErrorsOverWire checks that the ERROR frame's code byte maps
// server-side failures back onto the dkbms sentinels client-side.
func TestTypedErrorsOverWire(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Load("not a clause at all"); !errors.Is(err, dkbms.ErrParse) {
		t.Errorf("Load syntax error over wire: %v", err)
	}
	if _, err := c.Query("?- broken(", wire.QueryOpts{}); !errors.Is(err, dkbms.ErrParse) {
		t.Errorf("Query syntax error over wire: %v", err)
	}
	if _, err := c.Query("?- nosuch(X).", wire.QueryOpts{}); !errors.Is(err, dkbms.ErrUnknownPredicate) {
		t.Errorf("unknown predicate over wire: %v", err)
	}
	if err := c.Load("p(X)."); !errors.Is(err, dkbms.ErrSemantic) {
		t.Errorf("non-ground fact over wire: %v", err)
	}
	// The error text still reaches the caller verbatim-ish.
	_, err = c.Query("?- nosuch(X).", wire.QueryOpts{})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error text lost over wire: %v", err)
	}
}

func TestSlowlogOverWire(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A traced query, a cache-hit repeat, and a failing query: all three
	// must land in the slow log (threshold 0 retains everything).
	if _, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("?- nosuch(X).", wire.QueryOpts{}); err == nil {
		t.Fatal("expected unknown-predicate error")
	}

	sl, err := c.Slowlog()
	if err != nil {
		t.Fatal(err)
	}
	if sl.Capacity != int64(obs.DefaultSlowLogSize) || sl.ThresholdNs != 0 {
		t.Fatalf("slowlog settings = %+v", sl)
	}
	if sl.Recorded != 4 || len(sl.Entries) != 4 {
		t.Fatalf("recorded %d entries (%d in snapshot), want 4", sl.Recorded, len(sl.Entries))
	}
	var traced, resultHit, failed *int
	for i := range sl.Entries {
		e := &sl.Entries[i]
		switch {
		case e.Trace != nil:
			traced = &i
			if e.Rows != 9 || e.Iterations == 0 {
				t.Errorf("traced entry: rows=%d iterations=%d", e.Rows, e.Iterations)
			}
			if e.Trace.Find("lfp") == nil && e.Trace.Find("eval") == nil && len(e.Trace.Children) == 0 {
				t.Errorf("retained trace is empty")
			}
		case e.Err != "":
			failed = &i
			if !strings.Contains(e.Err, "nosuch") {
				t.Errorf("failed entry err = %q", e.Err)
			}
		case e.Cache == "result":
			resultHit = &i
		}
		if e.Session == 0 {
			t.Errorf("entry %d has no session id", i)
		}
		if e.Query == "" {
			t.Errorf("entry %d has no query text", i)
		}
	}
	if traced == nil || failed == nil || resultHit == nil {
		t.Fatalf("missing entry kinds (traced=%v failed=%v resultHit=%v):\n%+v",
			traced != nil, failed != nil, resultHit != nil, sl.Entries)
	}
}

func TestDebugEndpoints(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Query("?- ancestor(c0, W).", nil); err != nil {
		t.Fatal(err)
	}
	srv := server.New(tb, server.Options{})
	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /metrics is Prometheus text now; the JSON snapshot moved to
	// /metrics.json.
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	// Every family declares its kind: the server's own counters and the
	// engine's monotonic callbacks are counters, levels are gauges.
	for _, want := range []string{
		"# TYPE dkb_query_count counter",
		"# TYPE dkb_server_requests counter",
		"# TYPE dkb_plan_misses counter",
		"# TYPE dkb_snapshot_commits counter",
		"# TYPE dkb_server_sessions_active gauge",
		"# TYPE dkb_plan_entries gauge",
		"# TYPE dkb_server_request_latency_ns summary",
		"dkb_runtime_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var metrics []obs.Metric
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	var hasTable, hasShard, hasRate bool
	for _, m := range metrics {
		if strings.HasPrefix(m.Name, "table.") {
			hasTable = true
		}
		if strings.HasPrefix(m.Name, "pool.shard.") {
			hasShard = true
		}
		if m.Name == "pool.hit_rate_pct" {
			hasRate = true
		}
	}
	if !hasTable || !hasShard || !hasRate {
		t.Fatalf("engine metrics missing (table=%v shard=%v rate=%v)", hasTable, hasShard, hasRate)
	}

	code, body = get("/slowlog")
	if code != 200 {
		t.Fatalf("/slowlog = %d", code)
	}
	var snap obs.SlowLogSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/slowlog is not JSON: %v\n%s", err, body)
	}
	if snap.Capacity != obs.DefaultSlowLogSize {
		t.Fatalf("slowlog capacity = %d", snap.Capacity)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestSessionStructuredLogging(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	addr, cancel, done := startServer(t, tb, server.Options{Logger: logger})

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	cancel()
	<-done

	out := buf.String()
	for _, want := range []string{"session opened", "session=1", "addr=", "request served", "type=PING", "seq=1", "session closed"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// syncBuffer is a goroutine-safe strings.Builder for log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestQueryIDOverWire: a client-supplied query ID is echoed in the
// RESULT and filed in the server's slow-query ring; a server-minted ID
// (client sends none) is echoed too and matches the ring entry.
func TestQueryIDOverWire(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done := startServer(t, tb, server.Options{})
	defer func() { cancel(); <-done }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Client-supplied ID.
	const qid = 0x1234abcd
	res, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{QueryID: qid})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != qid {
		t.Fatalf("echoed id = %#x, want %#x", res.QueryID, qid)
	}

	// Server-minted ID.
	res2, err := c.Query("?- parent(c0, W).", wire.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.QueryID == 0 || res2.QueryID == qid {
		t.Fatalf("minted id = %#x", res2.QueryID)
	}

	// Both queries are filed in the slow log under their IDs.
	sl, err := c.Slowlog()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]obs.SlowQuery{}
	for _, e := range sl.Entries {
		byID[e.QueryID] = e
	}
	for _, want := range []uint64{qid, res2.QueryID} {
		if _, ok := byID[want]; !ok {
			t.Fatalf("slowlog has no entry for id %#x (entries: %+v)", want, sl.Entries)
		}
	}
	if e := byID[qid]; e.Query != "?- ancestor(c0, W)." {
		t.Fatalf("slowlog entry for %#x = %+v", qid, e)
	}
}

// TestTimeSeriesPinnedDeltas: with deterministic sample boundaries
// around a burst of N queries, the windowed query.count delta is
// exactly N.
func TestTimeSeriesPinnedDeltas(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	// A huge interval keeps the background ticker quiet so the only ring
	// samples are the pinned SampleNow calls below (plus Start's).
	srv := server.New(tb, server.Options{SampleInterval: time.Hour})
	addr, cancel, done := startServerWith(t, srv)
	defer func() { cancel(); <-done }()

	ts := srv.TimeSeries()
	ts.SampleNow()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	ts.SampleNow()

	st, ok := ts.Stat("query.count", 0)
	if !ok {
		t.Fatal("query.count not sampled")
	}
	if st.Delta != n {
		t.Fatalf("windowed query.count delta = %d, want %d", st.Delta, n)
	}
	if st.Rate <= 0 {
		t.Fatalf("rate = %v", st.Rate)
	}

	// The STATS reply carries the same counter.
	if got := stats(t, c)["query.count"]; got != n {
		t.Fatalf("STATS query.count = %d, want %d", got, n)
	}
}

// startServerWith is startServer for a pre-built server (tests that
// need the server handle itself).
func startServerWith(t *testing.T, srv *server.Server) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		return addr.String(), cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("server did not start: %v", err)
		return "", nil, nil
	}
}

// TestTimeSeriesAndTraceEndpoints drives /timeseries and /debug/trace:
// windowed series appear after traffic, and a traced query's span tree
// exports as Chrome trace-event JSON addressable by its query ID.
func TestTimeSeriesAndTraceEndpoints(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(baseProgram); err != nil {
		t.Fatal(err)
	}
	srv := server.New(tb, server.Options{SampleInterval: time.Hour})
	addr, cancel, done := startServerWith(t, srv)
	defer func() { cancel(); <-done }()
	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const qid = 0xbeef
	res, err := c.Query("?- ancestor(c0, W).", wire.QueryOpts{Trace: true, QueryID: qid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.QueryID != qid {
		t.Fatalf("traced result: trace=%v id=%#x", res.Trace, res.QueryID)
	}
	srv.TimeSeries().SampleNow()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/timeseries?points=16")
	if code != 200 {
		t.Fatalf("/timeseries = %d %s", code, body)
	}
	var snap obs.TimeSeriesSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	var found bool
	for _, s := range snap.Series {
		if s.Name == "query.count" && s.Last >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("/timeseries lacks query.count: %s", body)
	}
	if code, body := get("/timeseries?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window = %d %s", code, body)
	}

	code, body = get("/debug/trace?id=" + obs.FormatQueryID(qid))
	if code != 200 {
		t.Fatalf("/debug/trace = %d %s", code, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		names = append(names, fmt.Sprint(e["name"]))
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "query") || !strings.Contains(joined, "process_name") {
		t.Fatalf("/debug/trace events = %v", names)
	}
	if code, _ := get("/debug/trace?id=q00000000000000ff"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", code)
	}
	if code, _ := get("/debug/trace?id=nonsense!"); code != http.StatusBadRequest {
		t.Fatalf("bad id = %d", code)
	}
}

// TestSamplingAlwaysOn: a negative sample interval or window selects
// the default, so every server serves /timeseries.
func TestSamplingAlwaysOn(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	srv := server.New(tb, server.Options{SampleInterval: -1, SampleWindow: -1})
	if ts := srv.TimeSeries(); ts.Interval() != obs.DefaultSampleInterval || ts.Capacity() != obs.DefaultSampleWindow {
		t.Fatalf("ring %v x %d, want the defaults", ts.Interval(), ts.Capacity())
	}
	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/timeseries = %d, want 200", resp.StatusCode)
	}
}
