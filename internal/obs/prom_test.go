package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests_total").Add(7)
	reg.Gauge("server.sessions_active").Set(3)
	h := reg.Histogram("server.request_latency_ns")
	h.Observe(100)
	h.Observe(1000)
	reg.CollectorFunc("engine", func() []Metric {
		return []Metric{
			{Name: "table.f_parent.rows", Kind: "gauge", Value: 12},
			{Name: "table.f_parent.heap_reads", Kind: "counter", Value: 90},
			{Name: "table.other.rows", Kind: "gauge", Value: 5},
			{Name: "index.ix_parent_c0.height", Kind: "gauge", Value: 2},
			{Name: "pool.temp_pages", Kind: "gauge", Value: 44},
		}
	})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE dkb_server_requests_total counter\n",
		"dkb_server_requests_total 7\n",
		"# TYPE dkb_server_sessions_active gauge\n",
		"dkb_server_sessions_active 3\n",
		"# TYPE dkb_server_request_latency_ns summary\n",
		`dkb_server_request_latency_ns{quantile="0.5"}`,
		`dkb_server_request_latency_ns{quantile="0.99"}`,
		"dkb_server_request_latency_ns_sum 1100\n",
		"dkb_server_request_latency_ns_count 2\n",
		`dkb_table_rows{table="f_parent"} 12`,
		`dkb_table_rows{table="other"} 5`,
		`dkb_table_heap_reads{table="f_parent"} 90`,
		`dkb_index_height{index="ix_parent_c0"} 2`,
		"dkb_pool_temp_pages 44\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One # TYPE per family even with many labeled rows.
	if n := strings.Count(out, "# TYPE dkb_table_rows "); n != 1 {
		t.Fatalf("dkb_table_rows declared %d times", n)
	}
	// Basic format validity: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if strings.ContainsAny(fields[0][:1], "0123456789") {
			t.Fatalf("metric name starts with digit: %q", line)
		}
	}
}

func TestPromNameMapping(t *testing.T) {
	cases := []struct{ in, family, labels string }{
		{"server.requests", "dkb_server_requests", ""},
		{"table.f_parent.heap_recs_scanned", "dkb_table_heap_recs_scanned", `{table="f_parent"}`},
		{"index.ix_a_c0.depth_total", "dkb_index_depth_total", `{index="ix_a_c0"}`},
		{"pool.writes", "dkb_pool_writes", ""},
		{"pool.temp_pages", "dkb_pool_temp_pages", ""},
		{"pool.temp_free_pages", "dkb_pool_temp_free_pages", ""},
		{"runtime.gc_pause_p99_ns", "dkb_runtime_gc_pause_p99_ns", ""},
	}
	for _, c := range cases {
		family, labels := promName(c.in)
		if family != c.family || labels != c.labels {
			t.Errorf("promName(%q) = %q,%q want %q,%q", c.in, family, labels, c.family, c.labels)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	got := promLabels("table", "we\"ird\\nam\ne")
	want := `{table="we\"ird\\nam\ne"}`
	if got != want {
		t.Fatalf("promLabels = %s want %s", got, want)
	}
}
