// Package obs is the testbed's observability layer: a process-wide
// metrics registry (registry.go) and a per-query trace (this file).
//
// The paper reports every experiment in terms of internal counters —
// tuples produced per LFP iteration, temporary-table sizes, iterations
// to fixpoint — so the trace records exactly those: a span tree built
// while a query runs, with one span per compilation phase, per
// evaluation-order node, per LFP iteration and per SQL operator.
//
// The package is zero-dependency (stdlib only) so every layer of the
// system can import it. Tracing is strictly opt-in and the off state
// must cost only a nil check: every method on *Trace and *Span is
// nil-safe, so instrumented code writes
//
//	sp := tr.Start("magic rewrite")   // tr may be nil
//	...
//	sp.End()
//
// without guarding call sites.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are either int64
// or string (mirroring the two relational value kinds), which keeps
// wire encoding trivial.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
	// IsStr distinguishes the two value arms (an empty string is a
	// legal value).
	IsStr bool `json:"is_str,omitempty"`
}

// Value renders the attribute value.
func (a Attr) Value() string {
	if a.IsStr {
		return a.Str
	}
	return fmt.Sprintf("%d", a.Int)
}

// Span is one timed region of a trace: a name, a duration, ordered
// attributes and child spans. Spans form a tree under the Trace root.
// All methods are nil-safe.
type Span struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	// Offset is when the span started, relative to the trace root's
	// start (0 for the root itself). It positions spans on a shared
	// timeline — the Perfetto exporter's ts axis.
	Offset   time.Duration `json:"offset_ns,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	start time.Time
	tr    *Trace
}

// Trace is one query's span tree. A nil *Trace disables all recording;
// NewTrace arms it. A Trace is safe for concurrent use.
type Trace struct {
	mu   sync.Mutex
	root *Span
}

// NewTrace starts a trace whose root span carries the given name
// (conventionally the operation: "query", "compile", ...).
func NewTrace(name string) *Trace {
	t := &Trace{}
	t.root = &Span{Name: name, start: time.Now(), tr: t}
	return t
}

// Adopt wraps an externally-built span tree (for example one decoded
// from the wire) in a Trace so it can be formatted and searched. The
// spans become owned by the returned trace; Adopt(nil) is nil.
func Adopt(root *Span) *Trace {
	if root == nil {
		return nil
	}
	t := &Trace{root: root}
	var link func(s *Span)
	link = func(s *Span) {
		s.tr = t
		for _, c := range s.Children {
			link(c)
		}
	}
	link(root)
	return t
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish stamps the root span's duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.root.start.IsZero() {
		t.root.Duration = time.Since(t.root.start)
	}
	t.mu.Unlock()
}

// Start opens a child span of the root. Equivalent to t.Root().Start.
func (t *Trace) Start(name string) *Span { return t.Root().Start(name) }

// Start opens a child span. The child is appended immediately so a
// panic mid-span still leaves it visible; End stamps the duration.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{Name: name, start: time.Now(), tr: s.tr}
	// root.start is written once (NewTrace) before any Start can run, so
	// reading it without the trace lock is safe; adopted trees have a
	// zero root start and keep whatever offsets they were decoded with.
	if rs := s.tr.root.start; !rs.IsZero() {
		child.Offset = child.start.Sub(rs)
	}
	s.tr.mu.Lock()
	s.Children = append(s.Children, child)
	s.tr.mu.Unlock()
	return child
}

// End stamps the span's duration as time since Start.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Duration = time.Since(s.start)
	s.tr.mu.Unlock()
}

// SetDuration records an externally-measured duration (used when the
// instrumented code already keeps its own timers).
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Duration = d
	s.tr.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	s.tr.mu.Unlock()
}

// SetString records a string attribute.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
	s.tr.mu.Unlock()
}

// Int returns the value of the named integer attribute (0, false when
// absent). Nil-safe; used by tests and the shell's summaries.
func (s *Span) Int(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, a := range s.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

// Find returns the first descendant span (depth-first, including s)
// whose name matches, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every descendant span (depth-first, including s)
// whose name has the given prefix.
func (s *Span) FindAll(prefix string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// Format renders the trace as an EXPLAIN ANALYZE-style tree:
//
//	query                                   12.3ms
//	├─ compile                              1.1ms  rules=4
//	│  ├─ extract                           0.2ms
//	...
func (t *Trace) Format() string {
	if t == nil || t.root == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	formatSpan(&b, t.root, "", "", "")
	return b.String()
}

func formatSpan(b *strings.Builder, s *Span, lead, self, childLead string) {
	b.WriteString(lead)
	b.WriteString(self)
	b.WriteString(s.Name)
	fmt.Fprintf(b, "  [%s]", s.Duration.Round(time.Microsecond))
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value())
	}
	b.WriteByte('\n')
	for i, c := range s.Children {
		if i == len(s.Children)-1 {
			formatSpan(b, c, lead+childLead, "└─ ", "   ")
		} else {
			formatSpan(b, c, lead+childLead, "├─ ", "│  ")
		}
	}
}
