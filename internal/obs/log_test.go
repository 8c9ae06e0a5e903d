package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestLoggerTextFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.Info("accepted", "addr", "1.2.3.4:99", "session", int64(7))
	line := b.String()
	if !strings.Contains(line, "INFO accepted") {
		t.Errorf("missing level+message: %q", line)
	}
	for _, want := range []string{"addr=1.2.3.4:99", "session=7"} {
		if !strings.Contains(line, want) {
			t.Errorf("missing %q in %q", want, line)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Errorf("line not newline-terminated: %q", line)
	}
}

func TestLoggerQuotesAwkwardValues(t *testing.T) {
	var b strings.Builder
	NewLogger(&b).Warn("read", "err", errors.New("unexpected EOF mid frame"))
	if !strings.Contains(b.String(), `err="unexpected EOF mid frame"`) {
		t.Errorf("value with spaces not quoted: %q", b.String())
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b).SetLevel(LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	out := b.String()
	if strings.Contains(out, "DEBUG") || strings.Contains(out, "INFO") {
		t.Errorf("below-level records written: %q", out)
	}
	if !strings.Contains(out, "WARN w") || !strings.Contains(out, "ERROR e") {
		t.Errorf("at-level records missing: %q", out)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled disagrees with the level filter")
	}
}

func TestLoggerWithFields(t *testing.T) {
	var b strings.Builder
	base := NewLogger(&b)
	sess := base.With("session", int64(3), "addr", "localhost:1")
	sess.Info("query", "ms", 12*time.Millisecond)
	line := b.String()
	for _, want := range []string{"session=3", "addr=localhost:1", "ms=12ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("missing %q in %q", want, line)
		}
	}
	b.Reset()
	base.Info("bare")
	if strings.Contains(b.String(), "session=") {
		t.Errorf("child fields leaked into parent: %q", b.String())
	}
}

func TestLoggerJSON(t *testing.T) {
	var b strings.Builder
	NewJSONLogger(&b).With("session", int64(9)).Error("boom", "rows", 42, "q", `say "hi"`)
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if rec["level"] != "error" || rec["msg"] != "boom" {
		t.Errorf("level/msg wrong: %v", rec)
	}
	if rec["session"] != float64(9) || rec["rows"] != float64(42) {
		t.Errorf("numeric fields wrong: %v", rec)
	}
	if rec["q"] != `say "hi"` {
		t.Errorf("string escaping wrong: %v", rec["q"])
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("into the void", "k", 1)
	l.With("a", 2).Error("still nothing")
	if l.Enabled(LevelError) {
		t.Error("nil logger claims to be enabled")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "ERROR": LevelError, "bogus": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
