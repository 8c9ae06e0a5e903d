package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide metrics surface: named counters, gauges
// and histograms with atomic fast paths, plus callbacks for adapting
// existing snapshot-style stats (plan cache, buffer pool).
// Registration is idempotent — asking for an existing name returns the
// existing metric — so packages can grab their metrics at use sites
// without coordination.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]valueFunc
	collectors map[string]func() []Metric
}

// valueFunc is one Func registration: a callback and the kind of value
// it reads.
type valueFunc struct {
	kind Kind
	fn   func() int64
}

// Kind says what a metric's value is. It decides how /metrics declares
// the family and how readers take a rate of it.
type Kind string

// Metric kinds.
const (
	// KindCounter is a monotonic count (requests, hits, bytes).
	KindCounter Kind = "counter"
	// KindGauge is a level that moves both ways (sessions, entries).
	KindGauge Kind = "gauge"
	// KindHistogram is a distribution: Value counts the observations.
	KindHistogram Kind = "histogram"
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]valueFunc),
		collectors: make(map[string]func() []Metric),
	}
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; Add/Load are atomic, so the hot path is one atomic add.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (e.g. active sessions).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Func registers a callback evaluated at snapshot time, adapting
// existing stats structs (plan cache, buffer pool) into the registry
// without double bookkeeping. kind is KindCounter for a monotonic count
// and KindGauge for a level; a callback cannot be a histogram.
// Re-registering a name replaces the callback.
func (r *Registry) Func(name string, kind Kind, fn func() int64) {
	if kind != KindCounter && kind != KindGauge {
		panic("obs: Func " + name + " of kind " + string(kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = valueFunc{kind, fn}
}

// CollectorFunc registers a callback contributing a whole batch of
// metrics to every snapshot. Collectors serve dynamic metric sets whose
// names are not known at registration time — per-table heap counters,
// per-index tree shape — where one Func per name cannot keep up with
// tables being created and dropped. Like Funcs, collectors run outside
// the registry lock at snapshot time, so they may take other locks (the
// catalog's, the pool latch).
// Re-registering a name replaces the callback.
func (r *Registry) CollectorFunc(name string, fn func() []Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors[name] = fn
}

// Histogram records a distribution of int64 observations (the server
// uses nanosecond latencies) in exponential buckets: bucket i counts
// observations in (2^(i-1), 2^i]. Observation is lock-free.
type Histogram struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (non-positive values count into bucket 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// bucketOf maps v to its bucket: bucket i holds values in
// [2^(i-1), 2^i), so an observation's bucket index is its bit length.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// boundaries: the upper bound of the bucket containing the q-th
// observation. Exact to within a factor of 2, which is what a latency
// p50/p99 needs.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i >= 62 {
				return math.MaxInt64
			}
			return 1 << uint(i+1)
		}
	}
	return math.MaxInt64
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Value is the counter/gauge value; for histograms the count.
	Value int64 `json:"value"`
	// Sum, P50 and P99 are histogram-only.
	Sum int64 `json:"sum,omitempty"`
	P50 int64 `json:"p50,omitempty"`
	P99 int64 `json:"p99,omitempty"`
}

// Snapshot returns every metric, sorted by name, with callbacks
// evaluated now.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.funcs))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Load()})
	}
	for name, h := range r.histograms {
		out = append(out, Metric{
			Name: name, Kind: KindHistogram,
			Value: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	funcs := make(map[string]valueFunc, len(r.funcs))
	for name, f := range r.funcs {
		funcs[name] = f
	}
	collectors := make([]func() []Metric, 0, len(r.collectors))
	for _, fn := range r.collectors {
		collectors = append(collectors, fn)
	}
	r.mu.Unlock()
	// Callbacks run outside the registry lock: they may take other locks
	// (the plan cache's, the pager's).
	for name, f := range funcs {
		out = append(out, Metric{Name: name, Kind: f.kind, Value: f.fn()})
	}
	for _, fn := range collectors {
		out = append(out, fn()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as a JSON array (the dkbd -debug-addr
// endpoint body).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
