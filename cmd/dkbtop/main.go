// Command dkbtop is a live terminal monitor for a running dkbd server,
// in the spirit of top(1): it polls the server's debug HTTP endpoints
// (/metrics.json and /slowlog on dkbd's debug listener, which dkbd
// opens on 127.0.0.1:7408 unless -debug-addr moves it) and redraws a
// one-screen dashboard every interval — request throughput and latency
// percentiles, session and cache activity, sparklines over its recent
// polls, the busiest tables, and the slowest queries.
//
// Usage:
//
//	dkbtop                          # poll 127.0.0.1:7408 every 2s until interrupted
//	dkbtop -addr 10.0.0.5:9001 -interval 500ms
//	dkbtop -n 1                     # one snapshot, then exit (scripts)
//
// dkbtop is read-only: it touches nothing but the debug endpoints.
// The server keeps no metric history, so dkbtop keeps its own: the last
// sparkWidth+1 polls. Rates are the change of a counter between the last
// two polls over the time between them, so the first frame prints none,
// and the history starts when dkbtop does. History across a longer span
// belongs to a Prometheus scraper of /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dkbms/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7408", "dkbd debug HTTP address (host:port of -debug-addr)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	n := flag.Int("n", 0, "number of refreshes before exiting (0 = until interrupted)")
	flag.Parse()

	if err := run(os.Stdout, "http://"+*addr, *interval, *n); err != nil {
		fmt.Fprintf(os.Stderr, "dkbtop: %v\n", err)
		os.Exit(1)
	}
}

func run(out io.Writer, baseURL string, interval time.Duration, n int) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var h history
	for i := 0; ; i++ {
		cur, err := fetch(baseURL)
		if err != nil {
			return err
		}
		h = append(h, cur)
		if len(h) > sparkWidth+1 {
			h = h[len(h)-sparkWidth-1:]
		}
		if n != 1 {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprint(out, render(h))
		if n > 0 && i+1 >= n {
			return nil
		}
		select {
		case <-sig:
			return nil
		case <-time.After(interval):
		}
	}
}

// poll is one fetch of the server's debug endpoints.
type poll struct {
	at      time.Time
	metrics map[string]obs.Metric
	slow    obs.SlowLogSnapshot
}

// get returns the value of a metric, 0 when absent.
func (p *poll) get(name string) int64 { return p.metrics[name].Value }

// metric returns the full metric (for histogram percentiles).
func (p *poll) metric(name string) obs.Metric { return p.metrics[name] }

// history is dkbtop's telemetry: its recent polls, oldest first, never
// empty when rendered.
type history []*poll

// last returns the newest poll.
func (h history) last() *poll { return h[len(h)-1] }

// rate is a counter's increase per second between the last two polls,
// false before there are two.
func (h history) rate(name string) (float64, bool) {
	if len(h) < 2 {
		return 0, false
	}
	prev, cur := h[len(h)-2], h.last()
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return float64(max(cur.get(name)-prev.get(name), 0)) / dt, true
}

// withRate formats a counter as "150 (5.0/s)", or "150" before there
// is a rate.
func (h history) withRate(name string) string {
	v := h.last().get(name)
	if r, ok := h.rate(name); ok {
		return fmt.Sprintf("%d (%.1f/s)", v, r)
	}
	return fmt.Sprint(v)
}

// trend is what a sparkline draws for a metric: a counter's increase
// from each poll to the next, a gauge's value at every poll.
func (h history) trend(name string) []int64 {
	vals := make([]int64, len(h))
	for i, p := range h {
		vals[i] = p.get(name)
	}
	if h.last().metric(name).Kind == obs.KindCounter {
		return deltas(vals)
	}
	return vals
}

// fetch polls /metrics.json and /slowlog.
func fetch(baseURL string) (*poll, error) {
	var list []obs.Metric
	if err := getJSON(baseURL+"/metrics.json", &list); err != nil {
		return nil, err
	}
	p := &poll{at: time.Now(), metrics: make(map[string]obs.Metric, len(list))}
	for _, m := range list {
		p.metrics[m.Name] = m
	}
	if err := getJSON(baseURL+"/slowlog", &p.slow); err != nil {
		return nil, err
	}
	return p, nil
}

func getJSON(url string, v any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// render draws one dashboard frame from the poll history: current
// values from the newest poll, rates and sparklines from the polls
// before it (none on the first frame). It is a pure function of its
// input, so the display logic is testable without a server.
func render(h history) string {
	var b strings.Builder
	cur := h.last()

	lat := cur.metric("server.request_latency_ns")
	fmt.Fprintf(&b, "dkbd  requests %s  errors %d  sessions %d/%d active  in-flight %d\n",
		h.withRate("server.requests"), cur.get("server.errors"),
		cur.get("server.sessions_active"), cur.get("server.sessions_total"),
		cur.get("server.in_flight"))
	fmt.Fprintf(&b, "lat   p50 %v  p99 %v  (over %d requests)\n",
		time.Duration(lat.P50), time.Duration(lat.P99), lat.Value)

	planHits := cur.get("plan.result_hits") + cur.get("plan.hits")
	planAll := planHits + cur.get("plan.misses")
	fmt.Fprintf(&b, "cache pool %d%% hit  plan %s hit (%d result, %d plan, %d miss, %d entries)  gen %d\n",
		cur.get("pool.hit_rate_pct"), pct(planHits, planAll),
		cur.get("plan.result_hits"), cur.get("plan.hits"), cur.get("plan.misses"),
		cur.get("plan.entries"), cur.get("dkb.generation"))

	// Snapshot store: commit rate, copy-on-write stall, reclamation lag.
	fmt.Fprintf(&b, "snap  gen %d  readers %d  commits %s  copied %d  backlog %d  stall %v\n",
		cur.get("snapshot.gen"), cur.get("snapshot.active_readers"),
		h.withRate("snapshot.commits"), cur.get("snapshot.copied_tables"),
		cur.get("snapshot.reclaim_backlog"), time.Duration(cur.get("snapshot.writer_stall_ns")))

	// Sparklines over the polls so far: throughput shape, cache health
	// and reclamation lag at a glance.
	if len(h) > 1 {
		reqRate, _ := h.rate("server.requests")
		comRate, _ := h.rate("snapshot.commits")
		fmt.Fprintf(&b, "\ntrend %d polls over %v\n", len(h), cur.at.Sub(h[0].at).Round(time.Millisecond))
		fmt.Fprintf(&b, "      req/s    %s %.1f/s\n", spark(h.trend("server.requests")), reqRate)
		fmt.Fprintf(&b, "      commit/s %s %.1f/s\n", spark(h.trend("snapshot.commits")), comRate)
		fmt.Fprintf(&b, "      pool-hit %s %d%%\n", spark(h.trend("pool.hit_rate_pct")), cur.get("pool.hit_rate_pct"))
		fmt.Fprintf(&b, "      backlog  %s %d\n", spark(h.trend("snapshot.reclaim_backlog")), cur.get("snapshot.reclaim_backlog"))
	}

	// Busiest tables by heap traffic (reads + scanned records), top 5.
	type tableRow struct {
		name          string
		rows, traffic int64
	}
	var tables []tableRow
	for name, m := range cur.metrics {
		if !strings.HasPrefix(name, "table.") || !strings.HasSuffix(name, ".rows") {
			continue
		}
		t := strings.TrimSuffix(strings.TrimPrefix(name, "table."), ".rows")
		pre := "table." + t + "."
		tables = append(tables, tableRow{
			name: t,
			rows: m.Value,
			traffic: cur.get(pre+"heap_reads") + cur.get(pre+"heap_recs_scanned") +
				cur.get(pre+"heap_inserts") + cur.get(pre+"heap_deletes"),
		})
	}
	sort.Slice(tables, func(i, j int) bool {
		if tables[i].traffic != tables[j].traffic {
			return tables[i].traffic > tables[j].traffic
		}
		return tables[i].name < tables[j].name
	})
	if len(tables) > 0 {
		fmt.Fprintf(&b, "\n%-24s %10s %12s %10s %10s\n", "TABLE", "ROWS", "HEAP-TRAFFIC", "SCANS", "READS")
		for i, t := range tables {
			if i == 5 {
				fmt.Fprintf(&b, "  … %d more\n", len(tables)-5)
				break
			}
			pre := "table." + t.name + "."
			fmt.Fprintf(&b, "%-24s %10d %12d %10d %10d\n",
				t.name, t.rows, t.traffic, cur.get(pre+"heap_scans"), cur.get(pre+"heap_reads"))
		}
	}

	// Slowest queries, top 5 (the endpoint already sorts slowest first).
	fmt.Fprintf(&b, "\nSLOW QUERIES (%d recorded", cur.slow.Recorded)
	if cur.slow.ThresholdNs > 0 {
		fmt.Fprintf(&b, ", threshold %v", time.Duration(cur.slow.ThresholdNs))
	}
	fmt.Fprint(&b, ")\n")
	if len(cur.slow.Entries) == 0 {
		fmt.Fprint(&b, "  (none)\n")
	}
	for i, e := range cur.slow.Entries {
		if i == 5 {
			break
		}
		status := e.Cache
		if e.Err != "" {
			status = "ERR"
		}
		fmt.Fprintf(&b, "%10v %7d rows %-6s  %s\n",
			e.Latency.Round(time.Microsecond), e.Rows, status, oneLine(e.Query, 60))
	}
	return b.String()
}

// sparkWidth bounds the history: dkbtop keeps the last sparkWidth+1
// polls, so a counter's sparkline draws sparkWidth increments.
const sparkWidth = 30

// sparkBlocks are the eighth-block runes a sparkline is drawn with.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// spark draws values as a row of block characters scaled to the max;
// an all-zero or empty series renders flat.
func spark(vals []int64) string {
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 && v > 0 {
			i = int(v * int64(len(sparkBlocks)-1) / max)
		}
		b.WriteRune(sparkBlocks[i])
	}
	return b.String()
}

// deltas turns a counter's value at each poll into per-poll
// increments, clamped at zero across restarts.
func deltas(points []int64) []int64 {
	if len(points) < 2 {
		return nil
	}
	out := make([]int64, len(points)-1)
	for i := 1; i < len(points); i++ {
		if d := points[i] - points[i-1]; d > 0 {
			out[i-1] = d
		}
	}
	return out
}

// pct formats part-of-whole as "NN%", "n/a" when nothing counted.
func pct(part, whole int64) string {
	if whole <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d%%", part*100/whole)
}

// oneLine flattens and truncates a query for a single display row.
func oneLine(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > max {
		return s[:max-1] + "…"
	}
	return s
}
