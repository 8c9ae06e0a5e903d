package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dkbms/internal/rel"
)

// verb is what an operation asks of the program.
type verb uint8

const (
	verbQuery   verb = iota // pose a query text
	verbLoad                // commit facts (server workloads)
	verbRetract             // retract facts matching a pattern (server workloads)
	verbRules               // commit a batch of rules to the stored D/KB (km_rules)
)

// op is one operation of a caller's seeded sequence, with the answer
// the oracle expects: the reply's rows for a query, the number of
// facts removed for a retraction, the number of rules committed for a
// rule update, nothing for a load.
type op struct {
	verb verb
	text string
	want answer
	// static marks a query whose answer no write of the run changes;
	// traced runs replay such queries directly on the testbed.
	static bool
}

// reply is what came back: a query's rows, or the count an update
// reported (facts retracted, rules committed).
type reply struct {
	rows []rel.Tuple
	n    int
}

// answer reduces the reply for comparison with the oracle's. It is
// computed outside the timed call: latency is the program's time.
func (r reply) answer() answer {
	a := answerOf(r.rows)
	a.rows += r.n
	return a
}

func (o op) isQuery() bool { return o.verb == verbQuery }

// caller is one closed-loop client: it sends its next operation only
// after the previous one has completed.
type caller interface {
	// next draws the following operation of the caller's sequence.
	next() op
	// do sends the operation through the entry point a user would call.
	do(o op) (reply, error)
	// doTraced does the same through the layer calls the harness can
	// make itself, recording a span per call under the parent span.
	doTraced(o op, tr *tracer, parent int32) (reply, error)
	// probe runs after a traced operation's span has closed, for side
	// measurements that must not count as the operation's time.
	probe(o op, r reply, tr *tracer) error
	// traced returns what the caller's traced operations reported.
	traced() *layerTimes
}

// samples are one caller's observations, kept in its own slices and
// merged after the callers have been waited for.
type samples struct {
	query, update []time.Duration
	attempted     int
	failed        int
	rows          int // answer rows the queries returned
	firstFailure  string
	// cutShort counts operations a caller left undone because the phase
	// ran past maxSlowdown times its nominal length.
	cutShort int
}

func (s *samples) record(o op, d time.Duration, got answer, err error) {
	s.attempted++
	if o.isQuery() {
		s.query = append(s.query, d)
		s.rows += got.rows
	} else {
		s.update = append(s.update, d)
	}
	if err == nil && got == o.want {
		return
	}
	s.failed++
	if s.firstFailure == "" {
		if err != nil {
			s.firstFailure = o.text + ": " + err.Error()
		} else {
			s.firstFailure = o.text + ": answer differs from the oracle's"
		}
	}
}

func (s *samples) merge(o samples) {
	s.query = append(s.query, o.query...)
	s.update = append(s.update, o.update...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.rows += o.rows
	s.cutShort += o.cutShort
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

// percentiles returns the q-quantiles by nearest rank, in milliseconds;
// 0 where there are no samples.
func percentiles(d []time.Duration, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(d) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for k, q := range qs {
		i := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
		out[k] = ms(sorted[i])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// per divides, answering 0 for an empty denominator: a layer that did
// no work on a workload reports 0, not NaN.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// procStats are the process-wide counters the end-to-end cost metrics
// difference across the measured phase.
type procStats struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
	gcCycles            uint32
	gcPause             time.Duration
	heapLive            uint64
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procStats{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
		heapLive:   m.HeapAlloc,
	}
}

// span is one timed call into a layer. Spans of one operation share op;
// parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name string `json:"name"`
	// Text is the operation's text, on root spans.
	Text   string `json:"text,omitempty"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records one caller's spans in memory; they are written out
// when the run ends.
type tracer struct {
	epoch time.Time
	op    int64
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover, and returns the total duration of the "op"
// root spans beside it.
func selfTimes(spans []span) (self map[string]time.Duration, opTotal time.Duration) {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	self = map[string]time.Duration{}
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d - children[i]
		if s.Name == spanOp {
			opTotal += d
		}
	}
	return self, opTotal
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
