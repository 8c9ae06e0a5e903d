package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// decodeTrace parses the exported document back into generic structures
// (what Perfetto's JSON importer sees).
func decodeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func findEvent(events []map[string]any, name string) map[string]any {
	for _, e := range events {
		if e["name"] == name {
			return e
		}
	}
	return nil
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTrace("query")
	tr.Root().SetInt("snapshot_gen", 7)
	tr.Root().SetString("cache", "miss")
	compile := tr.Start("compile")
	time.Sleep(time.Millisecond)
	compile.End()
	eval := tr.Start("eval")
	iter := eval.Start("iteration 1")
	iter.SetInt("delta", 42)
	iter.End()
	eval.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Root(), 0xabc); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())

	proc := findEvent(events, "process_name")
	if proc == nil {
		t.Fatalf("no process_name metadata")
	}
	if args := proc["args"].(map[string]any); args["name"] != "dkb query q0000000000000abc" {
		t.Fatalf("process name = %v", args["name"])
	}

	root := findEvent(events, "query")
	if root == nil || root["ph"] != "X" {
		t.Fatalf("root span missing or not complete event: %v", root)
	}
	args := root["args"].(map[string]any)
	if args["snapshot_gen"] != float64(7) || args["cache"] != "miss" {
		t.Fatalf("root args = %v", args)
	}

	cm := findEvent(events, "compile")
	if cm == nil {
		t.Fatalf("compile span missing")
	}
	if cm["dur"].(float64) < 500 { // slept 1ms; dur is µs
		t.Fatalf("compile dur = %v µs, want >= 500", cm["dur"])
	}
	ev := findEvent(events, "eval")
	if ev["ts"].(float64) <= cm["ts"].(float64) {
		t.Fatalf("eval ts %v not after compile ts %v", ev["ts"], cm["ts"])
	}

	// Every span lies on the session thread, named in metadata.
	var sessionNamed bool
	for _, e := range events {
		if e["ph"] == "X" && e["tid"].(float64) != sessionTid {
			t.Fatalf("span %v on tid %v, want %d", e["name"], e["tid"], sessionTid)
		}
		if e["name"] == "thread_name" && e["tid"].(float64) == sessionTid {
			sessionNamed = e["args"].(map[string]any)["name"] == "session"
		}
	}
	if !sessionNamed {
		t.Fatalf("session thread not named")
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, 0); err != nil {
		t.Fatalf("nil root: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())
	if len(events) != 1 { // just the process metadata
		t.Fatalf("events = %v", events)
	}
}

func TestSpanOffsets(t *testing.T) {
	tr := NewTrace("query")
	a := tr.Start("a")
	time.Sleep(2 * time.Millisecond)
	b := tr.Start("b")
	a.End()
	b.End()
	tr.Finish()
	root := tr.Root()
	if root.Offset != 0 {
		t.Fatalf("root offset = %v", root.Offset)
	}
	if root.Children[1].Offset < root.Children[0].Offset+time.Millisecond {
		t.Fatalf("offsets not ordered: a=%v b=%v",
			root.Children[0].Offset, root.Children[1].Offset)
	}
}

func TestQueryIDMintFormatParse(t *testing.T) {
	a, b := NewQueryID(), NewQueryID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("mint: %d %d", a, b)
	}
	s := FormatQueryID(a)
	if len(s) != 17 || s[0] != 'q' {
		t.Fatalf("format %q", s)
	}
	back, err := ParseQueryID(s)
	if err != nil || back != a {
		t.Fatalf("parse(%q) = %d, %v; want %d", s, back, err, a)
	}
	if dec, err := ParseQueryID("12345"); err != nil || dec != 12345 {
		t.Fatalf("decimal parse = %d, %v", dec, err)
	}
	if FormatQueryID(0) != "" {
		t.Fatalf("FormatQueryID(0) = %q", FormatQueryID(0))
	}
	if _, err := ParseQueryID(""); err == nil {
		t.Fatalf("empty parse accepted")
	}
	if _, err := ParseQueryID("qzz"); err == nil {
		t.Fatalf("bad hex accepted")
	}
}
