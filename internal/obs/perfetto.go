package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Chrome trace-event export: renders a span tree as the JSON format
// ui.perfetto.dev and chrome://tracing load, so a query's compile
// phases, LFP iterations and operator spans can be inspected on a real
// timeline instead of the ASCII tree. One query is one "process", and
// every span lies on its session timeline, thread 1: an evaluation
// runs on one goroutine.

// traceEvent is one entry of the traceEvents array. Complete events
// ("X") carry ts/dur in microseconds (floats, so nanosecond precision
// survives); metadata events ("M") name processes and threads.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level document (object form, so Perfetto picks
// up the display unit).
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// sessionTid is the thread id of the session timeline.
const sessionTid = 1

// WriteChromeTrace renders the span tree rooted at root as Chrome
// trace-event JSON. queryID (0 = none) names the process so multiple
// exported queries stay distinguishable when concatenated in one UI
// session. Nil-safe: a nil root writes an empty trace.
func WriteChromeTrace(w io.Writer, root *Span, queryID uint64) error {
	doc := chromeTrace{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ns"}
	procName := "dkb query"
	if queryID != 0 {
		procName += " " + FormatQueryID(queryID)
	}
	pid := int64(1)
	doc.TraceEvents = append(doc.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: sessionTid,
		Args: map[string]any{"name": procName},
	})
	if root != nil {
		var walk func(s *Span, parentTs float64)
		walk = func(s *Span, parentTs float64) {
			ts := float64(s.Offset) / float64(time.Microsecond)
			if s.Offset == 0 {
				// Spans without a recorded offset (old peers) nest at
				// their parent's start so the tree still renders.
				ts = parentTs
			}
			ev := traceEvent{Name: s.Name, Ph: "X", Ts: ts, Pid: pid, Tid: sessionTid}
			dur := float64(s.Duration) / float64(time.Microsecond)
			ev.Dur = &dur
			if len(s.Attrs) > 0 {
				ev.Args = make(map[string]any, len(s.Attrs))
				for _, a := range s.Attrs {
					if a.IsStr {
						ev.Args[a.Key] = a.Str
					} else {
						ev.Args[a.Key] = a.Int
					}
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
			for _, c := range s.Children {
				walk(c, ts)
			}
		}
		walk(root, 0)
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: sessionTid,
			Args: map[string]any{"name": "session"},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
