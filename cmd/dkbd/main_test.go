package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
)

// TestBuildLogger: -log-format picks a text or JSON slog handler,
// -log-level filters below it, and an unknown name of either is an
// error.
func TestBuildLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := buildLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", "session", 3)
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "level=WARN msg=kept session=3") {
		t.Fatalf("text log:\n%s", out)
	}

	buf.Reset()
	if l, err = buildLogger(&buf, "DEBUG", "json"); err != nil {
		t.Fatal(err)
	}
	l.Debug("opened", "addr", "127.0.0.1:1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil || rec["msg"] != "opened" || rec["addr"] != "127.0.0.1:1" {
		t.Fatalf("json log %q: %v", buf.String(), err)
	}

	for _, c := range [][2]string{{"verbose", "text"}, {"info", "xml"}, {"", "text"}} {
		if _, err := buildLogger(&buf, c[0], c[1]); err == nil {
			t.Errorf("-log-level %q -log-format %q accepted", c[0], c[1])
		}
	}
}

// TestRunRejectsBadFlags: flags that name no valid setting stop dkbd
// before it opens a D/KB or a port, and a debug address that is taken
// stops it before it serves queries.
func TestRunRejectsBadFlags(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	ok := config{logLevel: "info", logFormat: "text", addr: "127.0.0.1:0"}
	for name, mod := range map[string]func(*config){
		"log level":          func(c *config) { c.logLevel = "loud" },
		"log format":         func(c *config) { c.logFormat = "yaml" },
		"debug address used": func(c *config) { c.debugAddr = taken.Addr().String() },
	} {
		cfg := ok
		mod(&cfg)
		if err := run(cfg); err == nil {
			t.Errorf("%s: run accepted %+v", name, cfg)
		}
	}
}
