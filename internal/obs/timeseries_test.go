package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTimeSeriesWindowDeltaAndRate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("query.count")
	g := reg.Gauge("backlog")
	ts := NewTimeSeries(reg, time.Second, 16)

	g.Set(5)
	ts.SampleNow()
	for i := 0; i < 40; i++ {
		c.Inc()
	}
	g.Set(2)
	time.Sleep(2 * time.Millisecond) // ensure a non-zero window span
	ts.SampleNow()

	st, ok := ts.Stat("query.count", 0)
	if !ok {
		t.Fatalf("query.count missing from window")
	}
	if st.Delta != 40 {
		t.Fatalf("windowed delta = %d, want exactly 40", st.Delta)
	}
	if st.Rate <= 0 {
		t.Fatalf("rate = %v, want > 0", st.Rate)
	}
	if st.Kind != "counter" || st.Last != 40 || st.First != 0 {
		t.Fatalf("unexpected stat %+v", st)
	}
	gs, ok := ts.Stat("backlog", 0)
	if !ok || gs.Min != 2 || gs.Max != 5 || gs.Last != 2 {
		t.Fatalf("gauge stat = %+v ok=%v, want min 2 max 5 last 2", gs, ok)
	}
}

func TestTimeSeriesHistogramWindowedQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	ts := NewTimeSeries(reg, time.Second, 8)

	// Pre-window observations: large values that must NOT leak into the
	// windowed quantiles.
	for i := 0; i < 100; i++ {
		h.Observe(1 << 30)
	}
	ts.SampleNow()
	// In-window observations: small.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	ts.SampleNow()

	st, ok := ts.Stat("lat", 0)
	if !ok {
		t.Fatalf("lat missing")
	}
	if st.Delta != 100 {
		t.Fatalf("delta = %d, want 100", st.Delta)
	}
	// 100 falls in bucket 6 (2^6=64 < 100 <= 2^7=128): upper bound 128.
	if st.P50 != 128 || st.P99 != 128 {
		t.Fatalf("windowed p50/p99 = %d/%d, want 128/128 (pre-window spikes excluded)", st.P50, st.P99)
	}
	// The cumulative quantile would be dominated by the big spikes;
	// prove the window isolated them.
	if cum := h.Quantile(0.99); cum <= 1<<29 {
		t.Fatalf("cumulative p99 = %d unexpectedly small", cum)
	}
}

func TestTimeSeriesWraparound(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	ts := NewTimeSeries(reg, time.Second, 4)
	for i := 0; i < 10; i++ {
		c.Inc()
		ts.SampleNow()
	}
	if got := ts.Samples(); got != 10 {
		t.Fatalf("Samples() = %d, want 10", got)
	}
	snap := ts.Window(0, 10)
	if snap.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", snap.Capacity)
	}
	var st *SeriesStat
	for i := range snap.Series {
		if snap.Series[i].Name == "n" {
			st = &snap.Series[i]
		}
	}
	if st == nil {
		t.Fatalf("series n missing")
	}
	// Ring of 4: retained samples are after increments 7,8,9,10.
	if st.First != 7 || st.Last != 10 || st.Delta != 3 {
		t.Fatalf("first/last/delta = %d/%d/%d, want 7/10/3", st.First, st.Last, st.Delta)
	}
	if len(st.Points) != 4 {
		t.Fatalf("points = %v, want 4 entries", st.Points)
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if st.Points[i] != want {
			t.Fatalf("points = %v, want [7 8 9 10]", st.Points)
		}
	}
}

func TestTimeSeriesTrailingWindowSelectsSuffix(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	ts := NewTimeSeries(reg, time.Second, 16)
	ts.SampleNow()
	time.Sleep(30 * time.Millisecond)
	c.Add(100)
	ts.SampleNow()
	time.Sleep(5 * time.Millisecond)
	c.Add(1)
	ts.SampleNow()
	// A ~20ms window must exclude the first sample.
	st, ok := ts.Stat("n", 20*time.Millisecond)
	if !ok {
		t.Fatalf("n missing")
	}
	if st.First != 100 || st.Delta != 1 {
		t.Fatalf("first/delta = %d/%d, want 100/1 (oldest sample outside window)", st.First, st.Delta)
	}
}

// TestTimeSeriesConcurrentTicksVsReaders drives the sampler and many
// readers concurrently; under -race this is the ring's memory-model
// proof. Correctness bar: every reader-observed window is internally
// consistent (monotonic counter, delta = last-first).
func TestTimeSeriesConcurrentTicksVsReaders(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	ts := NewTimeSeries(reg, time.Second, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: bump + sample as fast as possible
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			ts.SampleNow()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st, ok := ts.Stat("n", 0)
				if !ok {
					continue
				}
				if st.Delta != st.Last-st.First {
					t.Errorf("inconsistent window: %+v", st)
					return
				}
				if st.First > st.Last {
					t.Errorf("counter went backwards in window: %+v", st)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestTimeSeriesBackgroundSampler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Inc()
	ts := NewTimeSeries(reg, time.Millisecond, 64)
	ts.Start()
	ts.Start() // idempotent
	defer ts.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for ts.Samples() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler took too long: %d samples", ts.Samples())
		}
		time.Sleep(time.Millisecond)
	}
	ts.Stop()
	ts.Stop() // idempotent
	n := ts.Samples()
	time.Sleep(10 * time.Millisecond)
	if got := ts.Samples(); got != n {
		t.Fatalf("sampler still running after Stop: %d -> %d", n, got)
	}
}

// TestTimeSeriesDefaults: a non-positive interval or slot count selects
// the default; retention cannot be switched off.
func TestTimeSeriesDefaults(t *testing.T) {
	for _, c := range []struct {
		interval time.Duration
		slots    int
	}{{0, 0}, {-time.Second, -1}} {
		ts := NewTimeSeries(NewRegistry(), c.interval, c.slots)
		if ts.Interval() != DefaultSampleInterval || ts.Capacity() != DefaultSampleWindow {
			t.Errorf("NewTimeSeries(%v, %d): interval %v, capacity %d", c.interval, c.slots, ts.Interval(), ts.Capacity())
		}
	}
	ts := NewTimeSeries(NewRegistry(), time.Millisecond, 3)
	if ts.Interval() != time.Millisecond || ts.Capacity() != 3 || ts.Samples() != 0 {
		t.Fatalf("interval %v, capacity %d, samples %d", ts.Interval(), ts.Capacity(), ts.Samples())
	}
	if snap := ts.Window(time.Minute, 5); len(snap.Series) != 0 {
		t.Fatalf("an unsampled ring has series: %+v", snap)
	}
}

func TestTimeSeriesWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Add(3)
	ts := NewTimeSeries(reg, time.Second, 4)
	ts.SampleNow()
	ts.SampleNow()
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf, 0, 4); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap TimeSeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if snap.IntervalNs != int64(time.Second) || snap.Samples != 2 || len(snap.Series) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Series[0].Name != "n" || snap.Series[0].Last != 3 {
		t.Fatalf("series = %+v", snap.Series[0])
	}
}
