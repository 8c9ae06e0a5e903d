package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// SlowQuery is one retained slow-query record: what ran, how long it
// took, and the engine-floor context that explains why — plan-cache
// status, LFP iteration count, and (when the query ran with tracing
// enabled) the full span tree.
type SlowQuery struct {
	// Query is the query source text.
	Query string `json:"query"`
	// QueryID is the request's wire-propagated query ID (0 when the
	// query predates ID minting, e.g. local shells without tracing).
	QueryID uint64 `json:"query_id,omitempty"`
	// Start is when evaluation began.
	Start time.Time `json:"start"`
	// Latency is how long the query took end to end.
	Latency time.Duration `json:"latency_ns"`
	// Cache is the plan-cache outcome: "result" (answered from the
	// memoized result), "plan" (compiled program reused, re-evaluated),
	// "miss" (full compile), or "" when no cache was consulted.
	Cache string `json:"cache,omitempty"`
	// Iterations is the total LFP iteration count across evaluation
	// nodes (0 for non-recursive queries and cache result hits).
	Iterations int64 `json:"iterations,omitempty"`
	// Rows is the answer cardinality.
	Rows int64 `json:"rows"`
	// Session identifies the recording session (server-side; 0 locally).
	Session int64 `json:"session,omitempty"`
	// Snapshot is the engine-snapshot generation the query ran against
	// (0 when the query never pinned a snapshot, e.g. parse errors).
	Snapshot uint64 `json:"snapshot,omitempty"`
	// Err carries the error text for failed queries.
	Err string `json:"error,omitempty"`
	// Trace is the query's span tree, retained only when the query ran
	// with tracing enabled (recording cannot reconstruct one after the
	// fact).
	Trace *Span `json:"trace,omitempty"`
}

// SlowLog is a fixed-capacity ring buffer of slow-query records with a
// lock-free read path. Record stores each over-threshold entry into the
// next ring slot with two atomic operations (a cursor add and a pointer
// store); Snapshot reads the slots with atomic loads and never blocks a
// writer. Entries below the latency threshold cost one compare and no
// allocation, which keeps the hot query path clean when the threshold
// filters almost everything out.
//
// Retention policy: the ring keeps the most recent Capacity
// over-threshold queries; Snapshot reports them slowest-first. With a
// zero threshold every query is retained (the default: the ring then
// holds the last Capacity queries and Snapshot surfaces the slowest
// among them).
//
// All methods are nil-safe, matching the rest of the package.
type SlowLog struct {
	slots     []atomic.Pointer[SlowQuery]
	cursor    atomic.Uint64 // next slot to write (monotonic)
	threshold time.Duration // minimum retained latency, fixed by NewSlowLog
}

// DefaultSlowLogSize is the ring capacity selected by NewSlowLog when
// given a non-positive capacity.
const DefaultSlowLogSize = 128

// NewSlowLog returns a slow-query log retaining up to capacity entries
// at or above threshold (0 retains everything).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogSize
	}
	return &SlowLog{slots: make([]atomic.Pointer[SlowQuery], capacity), threshold: threshold}
}

// Threshold returns the retention threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Capacity returns the ring size.
func (l *SlowLog) Capacity() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Recorded returns how many entries have ever been retained (recorded
// minus filtered; old entries beyond Capacity have been overwritten).
func (l *SlowLog) Recorded() int64 {
	if l == nil {
		return 0
	}
	return int64(l.cursor.Load())
}

// Record retains the entry if it meets the threshold, returning whether
// it was kept. Below-threshold entries return immediately without
// allocating.
func (l *SlowLog) Record(q SlowQuery) bool {
	if l == nil {
		return false
	}
	if q.Latency < l.threshold {
		return false
	}
	e := q // private copy; callers may reuse their struct
	i := l.cursor.Add(1) - 1
	l.slots[i%uint64(len(l.slots))].Store(&e)
	return true
}

// Snapshot returns the retained entries, slowest first. The entries are
// copies; the caller may keep them. Concurrent Records may or may not
// be visible — the snapshot is a monitoring view, not a barrier.
func (l *SlowLog) Snapshot() []SlowQuery {
	if l == nil {
		return nil
	}
	out := make([]SlowQuery, 0, len(l.slots))
	for i := range l.slots {
		if p := l.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	return out
}

// SlowLogSnapshot is the JSON document served by the /slowlog debug
// endpoint: the retention settings plus the retained entries.
type SlowLogSnapshot struct {
	ThresholdNs int64       `json:"threshold_ns"`
	Capacity    int         `json:"capacity"`
	Recorded    int64       `json:"recorded"`
	Entries     []SlowQuery `json:"entries"`
}

// WriteJSON writes the snapshot as indented JSON (the debug endpoint
// body).
func (l *SlowLog) WriteJSON(w io.Writer) error {
	snap := SlowLogSnapshot{
		ThresholdNs: int64(l.Threshold()),
		Capacity:    l.Capacity(),
		Recorded:    l.Recorded(),
		Entries:     l.Snapshot(),
	}
	if snap.Entries == nil {
		snap.Entries = []SlowQuery{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
