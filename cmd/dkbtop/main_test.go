package main

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// pollAt builds a poll taken at second sec from metrics, with an empty
// slow log.
func pollAt(sec int, metrics ...obs.Metric) *poll {
	p := &poll{at: time.Unix(int64(sec), 0), metrics: make(map[string]obs.Metric, len(metrics))}
	for _, m := range metrics {
		p.metrics[m.Name] = m
	}
	return p
}

func TestRender(t *testing.T) {
	cur := pollAt(10, []obs.Metric{
		{Name: "server.requests", Kind: "counter", Value: 150},
		{Name: "server.errors", Kind: "counter", Value: 2},
		{Name: "server.sessions_active", Kind: "gauge", Value: 3},
		{Name: "server.sessions_total", Kind: "counter", Value: 7},
		{Name: "server.request_latency_ns", Kind: "histogram", Value: 150,
			P50: int64(2 * time.Millisecond), P99: int64(30 * time.Millisecond)},
		{Name: "pool.hit_rate_pct", Kind: "gauge", Value: 93},
		{Name: "plan.result_hits", Kind: "counter", Value: 40},
		{Name: "plan.hits", Kind: "counter", Value: 10},
		{Name: "plan.misses", Kind: "counter", Value: 50},
		{Name: "plan.entries", Kind: "gauge", Value: 12},
		{Name: "dkb.generation", Kind: "gauge", Value: 4},
		{Name: "snapshot.commits", Kind: "counter", Value: 9},
		{Name: "table.parent_2.rows", Kind: "gauge", Value: 1022},
		{Name: "table.parent_2.heap_reads", Kind: "counter", Value: 7},
		{Name: "table.parent_2.heap_recs_scanned", Kind: "counter", Value: 5000},
		{Name: "table.parent_2.heap_scans", Kind: "counter", Value: 11},
		{Name: "table.quiet_2.rows", Kind: "gauge", Value: 3},
	}...)
	cur.slow = obs.SlowLogSnapshot{
		Recorded: 2,
		Entries: []obs.SlowQuery{
			{Query: "?- ancestor(c0,\n  W).", Latency: 42 * time.Millisecond, Rows: 8194, Cache: "miss"},
			{Query: "?- nosuch(X).", Latency: time.Millisecond, Err: "unknown predicate"},
		},
	}
	// Ten seconds earlier every counter with a rate stood lower.
	prev := pollAt(0,
		obs.Metric{Name: "server.requests", Kind: "counter", Value: 100},
		obs.Metric{Name: "snapshot.commits", Kind: "counter", Value: 4},
	)
	out := render(history{prev, cur})

	for _, w := range []string{
		"requests 150 (5.0/s)",
		"commits 9 (0.5/s)",
		"errors 2",
		"sessions 3/7 active",
		"p50 2ms",
		"p99 30ms",
		"pool 93% hit",
		"plan 50% hit",
		"gen 4",
		"trend 2 polls over 10s",
		"parent_2",
		"1022",
		"SLOW QUERIES (2 recorded)",
		"8194 rows miss",
		"?- ancestor(c0, W).", // multi-line query flattened
		"ERR",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("frame missing %q:\n%s", w, out)
		}
	}

	// parent_2 (heavy traffic) must sort above quiet_2.
	if strings.Index(out, "parent_2") > strings.Index(out, "quiet_2") {
		t.Errorf("table ordering wrong:\n%s", out)
	}
}

// TestRenderFirstPoll: with one poll there is no interval to take a
// rate over, so the frame prints counts and no rate or sparkline.
func TestRenderFirstPoll(t *testing.T) {
	out := render(history{pollAt(0,
		obs.Metric{Name: "server.requests", Kind: "counter", Value: 150},
		obs.Metric{Name: "snapshot.commits", Kind: "counter", Value: 9},
		obs.Metric{Name: "server.request_latency_ns", Kind: "histogram", Value: 150, P50: int64(time.Millisecond)},
	)})
	for _, w := range []string{"requests 150  errors", "commits 9  copied", "p50 1ms", "SLOW QUERIES (0 recorded)"} {
		if !strings.Contains(out, w) {
			t.Errorf("first frame missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "/s") {
		t.Errorf("first frame prints a rate:\n%s", out)
	}
}

// TestRenderTrend: the sparklines draw a counter's increase from poll
// to poll and a gauge's value at every poll; the printed rate is the
// last two polls' increase over the time between them.
func TestRenderTrend(t *testing.T) {
	var h history
	for i, v := range [][4]int64{
		// requests, commits, pool hit %, reclaim backlog
		{100, 2, 90, 0},
		{120, 3, 91, 1},
		{150, 4, 93, 2},
	} {
		h = append(h, pollAt(2*i,
			obs.Metric{Name: "server.requests", Kind: obs.KindCounter, Value: v[0]},
			obs.Metric{Name: "snapshot.commits", Kind: obs.KindCounter, Value: v[1]},
			obs.Metric{Name: "pool.hit_rate_pct", Kind: obs.KindGauge, Value: v[2]},
			obs.Metric{Name: "snapshot.reclaim_backlog", Kind: obs.KindGauge, Value: v[3]},
		))
	}
	out := render(h)
	for _, w := range []string{
		"requests 150 (15.0/s)", // (150-120)/2s, not (150-100)/4s
		"trend 3 polls over 4s",
		"req/s    ▅█ 15.0/s", // deltas 20, 30
		"commit/s ██ 0.5/s",  // deltas 1, 1
		"pool-hit ▇▇█ 93%",   // values 90, 91, 93
		"backlog  ▁▄█ 2",     // values 0, 1, 2
	} {
		if !strings.Contains(out, w) {
			t.Errorf("frame missing %q:\n%s", w, out)
		}
	}

	// A counter that went down (the server restarted) rates zero.
	h = append(h, pollAt(6, obs.Metric{Name: "server.requests", Kind: obs.KindCounter, Value: 10}))
	if r, ok := h.rate("server.requests"); !ok || r != 0 {
		t.Errorf("rate across a restart = %v, %v", r, ok)
	}
}

func TestSpark(t *testing.T) {
	if got := spark([]int64{0, 1, 2, 4}); got != "▁▂▄█" {
		t.Errorf("spark = %q", got)
	}
	if got := spark([]int64{0, 0}); got != "▁▁" {
		t.Errorf("flat spark = %q", got)
	}
	if got := spark(nil); got != "" {
		t.Errorf("empty spark = %q", got)
	}
}

func TestDeltas(t *testing.T) {
	got := deltas([]int64{10, 15, 15, 12, 20})
	want := []int64{5, 0, 0, 8} // dips (restart) clamp to zero
	if len(got) != len(want) {
		t.Fatalf("deltas = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deltas = %v, want %v", got, want)
		}
	}
	if deltas([]int64{7}) != nil {
		t.Error("single-point deltas should be nil")
	}
}

func TestOneLine(t *testing.T) {
	if got := oneLine("a\n  b\tc", 60); got != "a b c" {
		t.Errorf("oneLine = %q", got)
	}
	long := strings.Repeat("x", 80)
	if got := oneLine(long, 10); len(got) != 9+len("…") || !strings.HasSuffix(got, "…") {
		t.Errorf("truncation = %q", got)
	}
}

// TestRunOnceAgainstFakeServer: dkbtop reads only /metrics.json and
// /slowlog. A single-shot run prints one frame with no rate and does
// not clear the screen; a second poll brings the rate.
func TestRunOnceAgainstFakeServer(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	var polls int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		paths = append(paths, r.URL.Path)
		switch r.URL.Path {
		case "/metrics.json":
			polls++
			fmt.Fprintf(w, `[{"name":"server.requests","kind":"counter","value":%d}]`, 9*polls)
		case "/slowlog":
			w.Write([]byte(`{"threshold_ns":0,"capacity":128,"recorded":0,"entries":[]}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer hs.Close()

	var b strings.Builder
	if err := run(&b, hs.URL, time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "requests 9  errors") || !strings.Contains(out, "(none)") || strings.Contains(out, "/s") {
		t.Errorf("single-shot output:\n%s", out)
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Errorf("-n 1 output must not clear the screen:\n%s", out)
	}

	b.Reset()
	mu.Lock()
	polls = 0
	mu.Unlock()
	if err := run(&b, hs.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "requests 18 (") || !strings.Contains(out, "req/s") {
		t.Errorf("second frame has no rate:\n%s", out)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range paths {
		if p != "/metrics.json" && p != "/slowlog" {
			t.Errorf("dkbtop requested %s", p)
		}
	}
}

// TestRenderRealServer renders a frame from two polls of a real
// server's debug handler, with a load and a few queries before the
// first and more queries between them. Every metric name render reads
// must be in that server's snapshot: this is the dashboard's side of
// the metric contract, so a renamed or deleted metric fails here
// instead of rendering as 0.
func TestRenderRealServer(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	srv := server.New(tb, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	defer func() { cancel(); <-done }()
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("parent(a, b). parent(b, c). ancestor(X, Y) :- parent(X, Y). ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."); err != nil {
		t.Fatal(err)
	}
	query := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Query("?- ancestor(a, X).", wire.QueryOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()

	var h history
	for _, n := range []int{3, 2} {
		query(n)
		p, err := fetch(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		h = append(h, p)
	}
	out := render(h)
	// The session counts a request once its reply is written, so the
	// last query may or may not be in the count yet.
	for _, w := range []string{"dkbd  requests ", "/s)", "lat   p50 ", "req/s", "TABLE", "edb_parent", "SLOW QUERIES (5 recorded)"} {
		if !strings.Contains(out, w) {
			t.Errorf("frame missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "p50 0s") {
		t.Errorf("no request latency in the frame:\n%s", out)
	}

	reads := renderReads(t)
	if len(reads) < 25 {
		t.Fatalf("found only %v in render", reads)
	}
	for _, name := range reads {
		if _, ok := h.last().metrics[name]; !ok {
			t.Errorf("render reads %q, which the server does not serve", name)
		}
	}
}

// renderReads parses main.go and returns the constant metric names
// render passes to a poll's get and metric methods and the history's
// rate, withRate and trend methods.
func renderReads(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reads []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "render" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			switch sel.Sel.Name {
			case "get", "metric", "rate", "withRate", "trend":
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				reads = append(reads, name)
			}
			return true
		})
	}
	return reads
}
