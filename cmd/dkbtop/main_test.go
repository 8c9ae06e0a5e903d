package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/obs"
	"dkbms/internal/server"
	"dkbms/internal/wire"
)

func sampleFrom(metrics []obs.Metric, slow obs.SlowLogSnapshot) *sample {
	s := &sample{metrics: make(map[string]obs.Metric, len(metrics)), slow: slow}
	for _, m := range metrics {
		s.metrics[m.Name] = m
	}
	return s
}

func TestRender(t *testing.T) {
	cur := sampleFrom([]obs.Metric{
		{Name: "server.requests", Kind: "counter", Value: 150},
		{Name: "server.errors", Kind: "counter", Value: 2},
		{Name: "server.sessions_active", Kind: "gauge", Value: 3},
		{Name: "server.sessions_total", Kind: "gauge", Value: 7},
		{Name: "server.request_latency_ns", Kind: "histogram", Value: 150,
			P50: int64(2 * time.Millisecond), P99: int64(30 * time.Millisecond)},
		{Name: "pool.hit_rate_pct", Kind: "gauge", Value: 93},
		{Name: "plan.result_hits", Kind: "gauge", Value: 40},
		{Name: "plan.hits", Kind: "gauge", Value: 10},
		{Name: "plan.misses", Kind: "gauge", Value: 50},
		{Name: "plan.entries", Kind: "gauge", Value: 12},
		{Name: "dkb.generation", Kind: "gauge", Value: 4},
		{Name: "sched.slots", Kind: "gauge", Value: 4},
		{Name: "sched.running", Kind: "gauge", Value: 2},
		{Name: "sched.completed", Kind: "gauge", Value: 640},
		{Name: "sched.stolen", Kind: "gauge", Value: 33},
		{Name: "matview.live", Kind: "gauge", Value: 2},
		{Name: "matview.maintained", Kind: "gauge", Value: 90},
		{Name: "matview.rederives", Kind: "gauge", Value: 6},
		{Name: "matview.delta_tuples", Kind: "gauge", Value: 410},
		{Name: "matview.maintain_ns", Kind: "gauge", Value: int64(3 * time.Millisecond)},
		{Name: "table.parent_2.rows", Kind: "gauge", Value: 1022},
		{Name: "table.parent_2.heap_reads", Kind: "counter", Value: 7},
		{Name: "table.parent_2.heap_recs_scanned", Kind: "counter", Value: 5000},
		{Name: "table.parent_2.heap_scans", Kind: "counter", Value: 11},
		{Name: "table.quiet_2.rows", Kind: "gauge", Value: 3},
	}, obs.SlowLogSnapshot{
		Recorded: 2,
		Entries: []obs.SlowQuery{
			{Query: "?- ancestor(c0,\n  W).", Latency: 42 * time.Millisecond, Rows: 8194, Cache: "miss"},
			{Query: "?- nosuch(X).", Latency: time.Millisecond, Err: "unknown predicate"},
		},
	})

	cur.ts.Series = []obs.SeriesStat{{Name: "server.requests", Kind: "counter", Last: 150, Rate: 5}}
	out := render(cur)

	for _, w := range []string{
		"requests 150 (5.0/s)",
		"errors 2",
		"sessions 3/7 active",
		"p50 2ms",
		"p99 30ms",
		"pool 93% hit",
		"plan 50% hit",
		"gen 4",
		"sched 2/4 slots running",
		"done 640",
		"stolen 33",
		"views 2 live",
		"rederived 6",
		"delta 410 tuples",
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

	// A series the ring has not sampled yet renders a zero rate.
	cur.ts.Series = nil
	if first := render(cur); !strings.Contains(first, "requests 150 (0.0/s)") {
		t.Errorf("unsampled rate:\n%s", first)
	}
}

func TestRenderWithRing(t *testing.T) {
	// Rates come from the ring's windowed rate and the sparkline block
	// renders.
	cur := sampleFrom([]obs.Metric{
		{Name: "server.requests", Kind: "counter", Value: 150},
	}, obs.SlowLogSnapshot{})
	cur.ts = obs.TimeSeriesSnapshot{
		IntervalNs: int64(time.Second),
		Capacity:   600,
		WindowNs:   int64(10 * time.Minute),
		Series: []obs.SeriesStat{
			{Name: "server.requests", Kind: "counter", Last: 150, Rate: 12.5,
				Points: []int64{100, 120, 150}},
			{Name: "snapshot.commits", Kind: "counter", Last: 4, Rate: 0.2,
				Points: []int64{2, 3, 4}},
			{Name: "pool.hit_rate_pct", Kind: "gauge", Last: 93,
				Points: []int64{90, 91, 93}},
			{Name: "snapshot.reclaim_backlog", Kind: "gauge", Last: 2,
				Points: []int64{0, 1, 2}},
		},
	}

	out := render(cur)

	for _, w := range []string{
		"requests 150 (12.5/s)",
		"ring  1s × 600 samples (window 10m0s)",
		"req/s",
		"commit/s",
		"0.2/s",
		"pool-hit",
		"93%",
		"backlog",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("ring frame missing %q:\n%s", w, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("no sparkline blocks in frame:\n%s", out)
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

func TestRunOnceAgainstFakeServer(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics.json":
			w.Write([]byte(`[{"name":"server.requests","kind":"gauge","value":9}]`))
		case "/slowlog":
			w.Write([]byte(`{"threshold_ns":0,"capacity":128,"recorded":0,"entries":[]}`))
		case "/timeseries":
			w.Write([]byte(`{"interval_ns":1000000000,"capacity":600,"samples":3,"window_ns":2000000000,` +
				`"series":[{"name":"server.requests","kind":"counter","last":9,"first":5,"delta":4,"rate":2}]}`))
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
	if !strings.Contains(out, "requests 9 (2.0/s)") || !strings.Contains(out, "(none)") {
		t.Errorf("single-shot output:\n%s", out)
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Errorf("-n 1 output must not clear the screen:\n%s", out)
	}
}

// TestRenderRealServer renders one frame from a real server's debug
// handler after a load and a few queries. Every metric name render
// reads must be in that server's snapshot (get, metric) or its ring
// (stat): this is the dashboard's side of the metric contract, so a
// renamed or deleted metric fails here instead of rendering as 0.
func TestRenderRealServer(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	srv := server.New(tb, server.Options{SampleInterval: time.Hour})
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
	for i := 0; i < 3; i++ {
		if _, err := c.Query("?- ancestor(a, X).", wire.QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	srv.TimeSeries().SampleNow()
	hs := httptest.NewServer(srv.DebugHandler())
	defer hs.Close()

	cur, err := fetch(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	out := render(cur)
	// The session counts a request once its reply is written, so the
	// last query may or may not be in the count yet.
	for _, w := range []string{"dkbd  requests ", "lat   p50 ", "TABLE", "edb_parent", "SLOW QUERIES (3 recorded)"} {
		if !strings.Contains(out, w) {
			t.Errorf("frame missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "p50 0s") {
		t.Errorf("no request latency in the frame:\n%s", out)
	}

	reads := renderReads(t)
	if len(reads["get"]) < 20 || len(reads["stat"]) < 4 {
		t.Fatalf("found only %v in render", reads)
	}
	for method, names := range reads {
		for _, name := range names {
			var ok bool
			if method == "stat" {
				for _, st := range cur.ts.Series {
					ok = ok || st.Name == name
				}
			} else {
				_, ok = cur.metrics[name]
			}
			if !ok {
				t.Errorf("render reads %s(%q), which the server does not serve", method, name)
			}
		}
	}
}

// renderReads parses main.go and returns the constant metric names
// render passes to the sample's get, metric and stat methods.
func renderReads(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string][]string{}
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
			switch m := sel.Sel.Name; m {
			case "get", "metric", "stat":
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				reads[m] = append(reads[m], name)
			}
			return true
		})
	}
	return reads
}
