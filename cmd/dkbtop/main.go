// Command dkbtop is a live terminal monitor for a running dkbd server,
// in the spirit of top(1): it polls the server's debug HTTP endpoints
// (/metrics.json, /timeseries and /slowlog, enabled with
// `dkbd -debug-addr`) and redraws a one-screen dashboard every interval
// — request throughput and latency percentiles, session and cache
// activity, sparklines over the server's retained time-series ring, the
// busiest tables, and the slowest queries.
//
// Usage:
//
//	dkbtop -addr 127.0.0.1:7408            # poll every 2s until interrupted
//	dkbtop -addr 127.0.0.1:7408 -interval 500ms
//	dkbtop -addr 127.0.0.1:7408 -n 1       # one snapshot, then exit (scripts)
//
// dkbtop is read-only: it touches nothing but the debug endpoints.
// Rates are the server's own windowed rates from the /timeseries ring,
// which every dkbd keeps.
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

	for i := 0; ; i++ {
		cur, err := fetch(baseURL)
		if err != nil {
			return err
		}
		if n != 1 {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprint(out, render(cur))
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

// sample is one poll of the server's debug endpoints.
type sample struct {
	metrics map[string]obs.Metric
	slow    obs.SlowLogSnapshot
	ts      obs.TimeSeriesSnapshot
}

// get returns the value of a metric, 0 when absent.
func (s *sample) get(name string) int64 { return s.metrics[name].Value }

// metric returns the full metric (for histogram percentiles).
func (s *sample) metric(name string) obs.Metric { return s.metrics[name] }

// stat returns one series from the time-series ring, the zero stat when
// the series is unknown.
func (s *sample) stat(name string) obs.SeriesStat {
	for _, st := range s.ts.Series {
		if st.Name == name {
			return st
		}
	}
	return obs.SeriesStat{}
}

// fetch polls /metrics.json, /slowlog and /timeseries.
func fetch(baseURL string) (*sample, error) {
	var list []obs.Metric
	if err := getJSON(baseURL+"/metrics.json", &list); err != nil {
		return nil, err
	}
	s := &sample{metrics: make(map[string]obs.Metric, len(list))}
	for _, m := range list {
		s.metrics[m.Name] = m
	}
	if err := getJSON(baseURL+"/slowlog", &s.slow); err != nil {
		return nil, err
	}
	if err := getJSON(baseURL+"/timeseries?points="+fmt.Sprint(sparkWidth), &s.ts); err != nil {
		return nil, err
	}
	return s, nil
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

// render draws one dashboard frame from a sample. Rates are the
// server's windowed rates over its retained ring, steady from the first
// frame. It is a pure function of its input, so the display logic is
// testable without a server.
func render(cur *sample) string {
	var b strings.Builder

	reqs := cur.get("server.requests")
	reqRate := cur.stat("server.requests").Rate
	lat := cur.metric("server.request_latency_ns")
	fmt.Fprintf(&b, "dkbd  requests %d (%.1f/s)  errors %d  sessions %d/%d active  in-flight %d\n",
		reqs, reqRate, cur.get("server.errors"),
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
	commitRate := cur.stat("snapshot.commits").Rate
	fmt.Fprintf(&b, "snap  gen %d  readers %d  commits %d (%.1f/s)  copied %d  backlog %d  stall %v\n",
		cur.get("snapshot.gen"), cur.get("snapshot.active_readers"),
		cur.get("snapshot.commits"), commitRate, cur.get("snapshot.copied_tables"),
		cur.get("snapshot.reclaim_backlog"), time.Duration(cur.get("snapshot.writer_stall_ns")))

	// Shared evaluation pool: task throughput and inline-steal share.
	taskRate := cur.stat("sched.completed").Rate
	fmt.Fprintf(&b, "sched %d workers  %d clients  queued %d  done %d (%.1f/s)  stolen %d\n",
		cur.get("sched.workers"), cur.get("sched.clients"), cur.get("sched.queued"),
		cur.get("sched.completed"), taskRate, cur.get("sched.stolen"))

	// Materialized views: maintenance throughput vs forced re-derivations.
	maintRate := cur.stat("matview.maintained").Rate
	fmt.Fprintf(&b, "views %d live  maintained %d (%.1f/s)  rederived %d  delta %d tuples  spent %v\n",
		cur.get("matview.live"), cur.get("matview.maintained"), maintRate,
		cur.get("matview.rederives"), cur.get("matview.delta_tuples"),
		time.Duration(cur.get("matview.maintain_ns")))

	// Sparklines over the server's time-series ring: throughput shape,
	// cache health and reclamation lag at a glance.
	fmt.Fprintf(&b, "\nring  %v × %d samples (window %v)\n",
		time.Duration(cur.ts.IntervalNs), cur.ts.Capacity, time.Duration(cur.ts.WindowNs))
	req := cur.stat("server.requests")
	com := cur.stat("snapshot.commits")
	hit := cur.stat("pool.hit_rate_pct")
	back := cur.stat("snapshot.reclaim_backlog")
	fmt.Fprintf(&b, "      req/s    %s %.1f/s\n", spark(deltas(req.Points)), req.Rate)
	fmt.Fprintf(&b, "      commit/s %s %.1f/s\n", spark(deltas(com.Points)), com.Rate)
	fmt.Fprintf(&b, "      pool-hit %s %d%%\n", spark(hit.Points), hit.Last)
	fmt.Fprintf(&b, "      backlog  %s %d\n", spark(back.Points), back.Last)

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

// sparkWidth is how many ring points the sparklines ask for and draw.
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

// deltas turns a counter's cumulative points into per-interval
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
