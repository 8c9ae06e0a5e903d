package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Start("anything")
	sp.SetInt("k", 1)
	sp.SetString("s", "v")
	sp.End()
	sp.SetDuration(time.Second)
	child := sp.Start("child")
	child.End()
	tr.Finish()
	if tr.Root() != nil || tr.Format() != "" {
		t.Fatal("nil trace must be empty")
	}
	if _, ok := sp.Int("k"); ok {
		t.Fatal("nil span must hold no attrs")
	}
	if sp.Find("child") != nil || len(sp.FindAll("c")) != 0 {
		t.Fatal("nil span must have no descendants")
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	c := tr.Start("compile")
	c.SetInt("rules", 4)
	c.End()
	e := tr.Start("eval")
	it := e.Start("iteration 1")
	it.SetInt("delta", 7)
	it.End()
	e.End()
	tr.Finish()

	if got := tr.Root().Find("iteration 1"); got == nil {
		t.Fatal("iteration span not found")
	} else if d, ok := got.Int("delta"); !ok || d != 7 {
		t.Fatalf("delta attr = %d, %v", d, ok)
	}
	if n := len(tr.Root().FindAll("iteration")); n != 1 {
		t.Fatalf("FindAll found %d spans, want 1", n)
	}
	out := tr.Format()
	for _, want := range []string{"query", "├─ compile", "└─ eval", "└─ iteration 1", "delta=7", "rules=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("query")
	parent := tr.Start("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := parent.Start("job")
			sp.SetInt("n", 1)
			sp.End()
		}()
	}
	wg.Wait()
	parent.End()
	if n := len(parent.Children); n != 16 {
		t.Fatalf("recorded %d children, want 16", n)
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Inc()
	c.Add(2)
	if r.Counter("requests") != c {
		t.Fatal("Counter registration is not idempotent")
	}
	if c.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c.Load())
	}
	g := r.Gauge("active")
	g.Set(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}
	r.Func("cb", KindGauge, func() int64 { return 42 })
	r.Func("hits", KindCounter, func() int64 { return 7 })

	snap := r.Snapshot()
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["requests"].Value != 3 || byName["requests"].Kind != "counter" {
		t.Fatalf("snapshot requests = %+v", byName["requests"])
	}
	if byName["cb"].Value != 42 || byName["cb"].Kind != KindGauge {
		t.Fatalf("snapshot cb = %+v", byName["cb"])
	}
	// A callback carries the kind it was registered with.
	if byName["hits"].Value != 7 || byName["hits"].Kind != KindCounter {
		t.Fatalf("snapshot hits = %+v", byName["hits"])
	}
	defer func() {
		if recover() == nil {
			t.Error("a histogram callback was accepted")
		}
	}()
	r.Func("h", KindHistogram, func() int64 { return 0 })
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency")
	for i := 0; i < 98; i++ {
		h.Observe(1000) // bucket [512, 1024) -> upper bound 1024
	}
	h.Observe(1 << 20)
	h.Observe(1 << 20)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 != 1024 {
		t.Fatalf("p50 = %d, want 1024", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 1<<21 {
		t.Fatalf("p99 = %d, want %d", p99, 1<<21)
	}
	// Quantiles are monotone and the empty histogram reports zero.
	if (&Histogram{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	// Empty: every quantile is 0.
	var empty Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	// Single bucket: all observations in one bucket, every quantile is
	// that bucket's upper bound.
	single := &Histogram{}
	for i := 0; i < 5; i++ {
		single.Observe(700) // bucket [512, 1024)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 1024 {
			t.Errorf("single-bucket Quantile(%v) = %d, want 1024", q, got)
		}
	}
	// Non-positive observations land in bucket 0 (upper bound 2).
	neg := &Histogram{}
	neg.Observe(-5)
	neg.Observe(0)
	if got := neg.Quantile(0.99); got != 2 {
		t.Errorf("non-positive Quantile(0.99) = %d, want 2", got)
	}
	// Overflow bucket: observations at the top of the int64 range must
	// not report a shifted-past-63-bits bound; they saturate to MaxInt64.
	over := &Histogram{}
	over.Observe(math.MaxInt64)
	if got := over.Quantile(0.5); got != math.MaxInt64 {
		t.Errorf("overflow-bucket Quantile(0.5) = %d, want MaxInt64", got)
	}
	over.Observe(1 << 62)
	if got := over.Quantile(1); got != math.MaxInt64 {
		t.Errorf("bucket-62 Quantile(1) = %d, want MaxInt64", got)
	}
}

func TestRegistryCollectorFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.CollectorFunc("tables", func() []Metric {
		return []Metric{
			{Name: "table.edge.reads", Kind: "counter", Value: 7},
			{Name: "table.ancestor.reads", Kind: "counter", Value: 3},
		}
	})
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3: %+v", len(snap), snap)
	}
	// Collector metrics merge into the sorted snapshot.
	if snap[0].Name != "table.ancestor.reads" || snap[1].Name != "table.edge.reads" || snap[2].Name != "z" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	// Re-registering a collector name replaces it.
	r.CollectorFunc("tables", func() []Metric { return nil })
	if got := len(r.Snapshot()); got != 1 {
		t.Fatalf("after replacement snapshot has %d metrics, want 1", got)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var metrics []Metric
	if err := json.Unmarshal(buf.Bytes(), &metrics); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(metrics) != 2 || metrics[0].Name != "a" || metrics[1].Name != "h" {
		t.Fatalf("unexpected snapshot %+v", metrics)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read zero")
	}
}
