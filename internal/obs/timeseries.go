package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TimeSeries is a fixed-window retained-telemetry ring: a background
// sampler snapshots every registry metric at a configurable interval
// into a ring of the last N samples, and readers compute windowed
// deltas, rates and quantiles from the retained samples. The paper's
// experiments are all time series (cost as the D/KB evolves); this is
// the process-side equivalent — the server's counters over the last ten
// minutes, not just their current values.
//
// Concurrency follows the SlowLog pattern: each sample lands in the
// next ring slot with one atomic cursor add and one atomic pointer
// store; readers load slots with atomic loads and never block the
// sampler. The sampler itself is a single goroutine (plus SampleNow for
// deterministic tests), so samples are strictly ordered in time.
type TimeSeries struct {
	reg      *Registry
	interval time.Duration
	slots    []atomic.Pointer[Sample]
	cursor   atomic.Uint64 // next slot to write (monotonic)

	// mu serializes writers (the ticker goroutine and SampleNow), so
	// sample timestamps are monotonic in ring order.
	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{} // closed when the sampler goroutine exits
	stopOnce sync.Once
	started  atomic.Bool
}

// Sample is one sampling instant: every registry metric at one moment.
type Sample struct {
	At     time.Time
	Points []SamplePoint // sorted by name
}

// Default sampling configuration (dkbd's -sample-interval/-sample-window
// defaults): one sample per second, ten minutes retained.
const (
	DefaultSampleInterval = time.Second
	DefaultSampleWindow   = 600
)

// NewTimeSeries builds a ring sampling reg every interval, retaining
// slots samples; interval <= 0 selects DefaultSampleInterval and
// slots <= 0 DefaultSampleWindow. The returned ring does not sample
// until Start (or SampleNow) is called.
func NewTimeSeries(reg *Registry, interval time.Duration, slots int) *TimeSeries {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if slots <= 0 {
		slots = DefaultSampleWindow
	}
	return &TimeSeries{
		reg:      reg,
		interval: interval,
		slots:    make([]atomic.Pointer[Sample], slots),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling interval.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

// Capacity returns the ring size.
func (ts *TimeSeries) Capacity() int { return len(ts.slots) }

// Samples returns how many samples have ever been taken (old ones
// beyond Capacity have been overwritten).
func (ts *TimeSeries) Samples() int64 { return int64(ts.cursor.Load()) }

// Start launches the background sampler. Idempotent; the first sample
// is taken immediately so a freshly started server has a baseline
// before the first tick.
func (ts *TimeSeries) Start() {
	if !ts.started.CompareAndSwap(false, true) {
		return
	}
	ts.SampleNow()
	go ts.run()
}

// Stop halts the background sampler and waits for it to exit — no
// sample lands after Stop returns. Idempotent. Retained samples stay
// readable after Stop.
func (ts *TimeSeries) Stop() {
	ts.stopOnce.Do(func() { close(ts.stop) })
	if ts.started.Load() {
		<-ts.done
	}
}

func (ts *TimeSeries) run() {
	defer close(ts.done)
	tick := time.NewTicker(ts.interval)
	defer tick.Stop()
	for {
		select {
		case <-ts.stop:
			return
		case <-tick.C:
			ts.SampleNow()
		}
	}
}

// SampleNow takes one sample synchronously — the ticker's body, also
// called directly by tests that need deterministic sample boundaries.
func (ts *TimeSeries) SampleNow() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := &Sample{At: time.Now(), Points: ts.reg.sample()}
	i := ts.cursor.Add(1) - 1
	ts.slots[i%uint64(len(ts.slots))].Store(s)
}

// retained returns the retained samples ordered oldest first. Readers
// see a consistent ring view: slots are read newest-to-oldest by cursor
// position, so a concurrent sampler overwriting the oldest slot can at
// worst make that slot appear newer, which the timestamp ordering check
// discards.
func (ts *TimeSeries) retained() []*Sample {
	cur := ts.cursor.Load()
	n := uint64(len(ts.slots))
	out := make([]*Sample, 0, len(ts.slots))
	// Walk backwards from the most recently written slot.
	steps := cur
	if steps > n {
		steps = n
	}
	var newest time.Time
	for k := uint64(0); k < steps; k++ {
		i := (cur - 1 - k) % n
		s := ts.slots[i].Load()
		if s == nil {
			continue
		}
		// Discard out-of-order slots (a racing overwrite).
		if !newest.IsZero() && s.At.After(newest) {
			continue
		}
		newest = s.At
		out = append(out, s)
	}
	// Reverse to oldest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SeriesStat is one metric's windowed statistics.
type SeriesStat struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Last is the newest sampled value (counter/gauge value; histogram
	// observation count), First the oldest in the window.
	Last  int64 `json:"last"`
	First int64 `json:"first"`
	// Delta is Last - First; Rate is Delta per second over the window's
	// actual span. Meaningful for counters and cumulative gauges; for
	// level gauges read Min/Max/Last instead.
	Delta int64   `json:"delta"`
	Rate  float64 `json:"rate"`
	// Min and Max bound the sampled values inside the window.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// P50 and P99 are windowed quantiles for histograms — computed from
	// the bucket-count delta between the window's edges, so they describe
	// only the observations that happened inside the window.
	P50 int64 `json:"p50,omitempty"`
	P99 int64 `json:"p99,omitempty"`
	// Points are the raw sampled values, oldest first, present only when
	// the reader asked for them (dkbtop's sparklines).
	Points []int64 `json:"points,omitempty"`
}

// TimeSeriesSnapshot is the JSON document served by /timeseries: the
// ring configuration plus per-metric windowed statistics.
type TimeSeriesSnapshot struct {
	IntervalNs int64 `json:"interval_ns"`
	Capacity   int   `json:"capacity"`
	Samples    int64 `json:"samples"`
	// WindowNs is the actual span covered (newest.At - oldest.At of the
	// samples used), which can be shorter than requested on a young ring.
	WindowNs int64        `json:"window_ns"`
	Series   []SeriesStat `json:"series"`
}

// Window computes per-metric statistics over the trailing window d
// (d <= 0 means the whole retained ring), attaching up to points raw
// values per series when points > 0.
func (ts *TimeSeries) Window(d time.Duration, points int) TimeSeriesSnapshot {
	snap := TimeSeriesSnapshot{
		IntervalNs: int64(ts.Interval()),
		Capacity:   ts.Capacity(),
		Samples:    ts.Samples(),
		Series:     []SeriesStat{},
	}
	samples := ts.retained()
	if d > 0 && len(samples) > 0 {
		cutoff := samples[len(samples)-1].At.Add(-d)
		lo := 0
		for lo < len(samples)-1 && samples[lo].At.Before(cutoff) {
			lo++
		}
		samples = samples[lo:]
	}
	if len(samples) == 0 {
		return snap
	}
	oldest, newest := samples[0], samples[len(samples)-1]
	span := newest.At.Sub(oldest.At)
	snap.WindowNs = int64(span)

	// Index the oldest sample's points by name for first-value and
	// histogram bucket-delta lookups.
	first := make(map[string]SamplePoint, len(oldest.Points))
	for _, p := range oldest.Points {
		first[p.Name] = p
	}
	// Seed one stat per series in the newest sample (the authoritative
	// metric set — tables created mid-window appear, dropped ones age
	// out), then sweep every sample once to fill min/max/points.
	index := make(map[string]int, len(newest.Points))
	snap.Series = make([]SeriesStat, 0, len(newest.Points))
	for _, p := range newest.Points {
		st := SeriesStat{Name: p.Name, Kind: p.Kind, Last: p.Value, Min: p.Value, Max: p.Value}
		if f, ok := first[p.Name]; ok {
			st.First = f.Value
			st.Delta = p.Value - f.Value
			if span > 0 {
				st.Rate = float64(st.Delta) / span.Seconds()
			}
			if p.Kind == KindHistogram {
				st.P50, st.P99 = windowedQuantiles(f.Buckets, p.Buckets)
			}
		}
		index[p.Name] = len(snap.Series)
		snap.Series = append(snap.Series, st)
	}
	for _, s := range samples {
		for _, q := range s.Points {
			i, ok := index[q.Name]
			if !ok {
				continue
			}
			st := &snap.Series[i]
			if q.Value < st.Min {
				st.Min = q.Value
			}
			if q.Value > st.Max {
				st.Max = q.Value
			}
			if points > 0 {
				st.Points = append(st.Points, q.Value)
			}
		}
	}
	if points > 0 {
		for i := range snap.Series {
			if pts := snap.Series[i].Points; len(pts) > points {
				snap.Series[i].Points = pts[len(pts)-points:]
			}
		}
	}
	return snap
}

// windowedQuantiles computes p50/p99 from the bucket-count delta
// between the window's edge samples.
func windowedQuantiles(oldBuckets, newBuckets []int64) (p50, p99 int64) {
	if len(newBuckets) == 0 {
		return 0, 0
	}
	delta := make([]int64, len(newBuckets))
	for i := range newBuckets {
		delta[i] = newBuckets[i]
		if i < len(oldBuckets) {
			delta[i] -= oldBuckets[i]
		}
		if delta[i] < 0 {
			delta[i] = 0
		}
	}
	return quantileFromBuckets(delta, 0.50), quantileFromBuckets(delta, 0.99)
}

// Stat returns one metric's windowed statistics (false when the metric
// is absent from the window). Convenience for tests and dkbtop.
func (ts *TimeSeries) Stat(name string, d time.Duration) (SeriesStat, bool) {
	for _, st := range ts.Window(d, 0).Series {
		if st.Name == name {
			return st, true
		}
	}
	return SeriesStat{}, false
}

// WriteJSON writes the windowed snapshot as indented JSON (the
// /timeseries debug endpoint body).
func (ts *TimeSeries) WriteJSON(w io.Writer, d time.Duration, points int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts.Window(d, points))
}
