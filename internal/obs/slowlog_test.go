package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSlowLogThresholdFilters(t *testing.T) {
	l := NewSlowLog(8, 10*time.Millisecond)
	if l.Record(SlowQuery{Query: "fast", Latency: time.Millisecond}) {
		t.Error("below-threshold entry was retained")
	}
	if !l.Record(SlowQuery{Query: "slow", Latency: 20 * time.Millisecond}) {
		t.Error("over-threshold entry was dropped")
	}
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0].Query != "slow" {
		t.Fatalf("snapshot = %+v, want the one slow entry", snap)
	}
	if l.Recorded() != 1 {
		t.Errorf("Recorded() = %d, want 1", l.Recorded())
	}
	l = NewSlowLog(8, 0)
	if l.Threshold() != 0 {
		t.Errorf("Threshold() = %v for NewSlowLog(8, 0)", l.Threshold())
	}
	if !l.Record(SlowQuery{Query: "fast", Latency: time.Millisecond}) {
		t.Error("zero threshold must retain everything")
	}
}

func TestSlowLogRingOverwritesOldest(t *testing.T) {
	l := NewSlowLog(4, 0)
	for i := 0; i < 10; i++ {
		l.Record(SlowQuery{Query: "q", Latency: time.Duration(i) * time.Millisecond})
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d entries, want capacity 4", len(snap))
	}
	// The last four records (6..9 ms) survive, slowest first.
	for i, want := range []time.Duration{9, 8, 7, 6} {
		if snap[i].Latency != want*time.Millisecond {
			t.Errorf("snap[%d].Latency = %v, want %v ms", i, snap[i].Latency, want)
		}
	}
}

func TestSlowLogSortsSlowestFirst(t *testing.T) {
	l := NewSlowLog(8, 0)
	for _, ms := range []int{3, 9, 1, 7} {
		l.Record(SlowQuery{Query: "q", Latency: time.Duration(ms) * time.Millisecond})
	}
	snap := l.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Latency > snap[i-1].Latency {
			t.Fatalf("snapshot not sorted slowest-first: %v", snap)
		}
	}
}

// TestSlowLogConcurrent hammers Record from many goroutines while
// others Snapshot, under -race in CI: the read path must be lock-free
// and the ring must never tear an entry.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, 0)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				l.Record(SlowQuery{
					Query:   "?- ancestor(X, W).",
					Latency: time.Duration(i) * time.Microsecond,
					Session: int64(w),
					Rows:    int64(i),
				})
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range l.Snapshot() {
				if e.Query == "" {
					t.Error("torn entry: empty query text")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := l.Recorded(); got != 4000 {
		t.Errorf("Recorded() = %d, want 4000", got)
	}
}

func TestSlowLogNil(t *testing.T) {
	var l *SlowLog
	if l.Record(SlowQuery{}) {
		t.Error("nil SlowLog retained an entry")
	}
	if l.Snapshot() != nil || l.Capacity() != 0 || l.Recorded() != 0 || l.Threshold() != 0 {
		t.Error("nil SlowLog accessors must return zero values")
	}
}

func TestSlowLogWriteJSON(t *testing.T) {
	l := NewSlowLog(4, 0)
	l.Record(SlowQuery{Query: "?- p(X).", Latency: 5 * time.Millisecond, Rows: 3, Cache: "miss"})
	var b strings.Builder
	if err := l.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"threshold_ns"`, `"capacity": 4`, `"?- p(X)."`, `"cache": "miss"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON body missing %s:\n%s", want, b.String())
		}
	}
}
