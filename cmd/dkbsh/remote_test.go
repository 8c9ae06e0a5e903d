package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/server"
)

// TestRemoteStats drives .stats against a served D/KB: one line per
// registry metric, narrowed by a prefix, with the latency histogram's
// percentiles printed as durations.
func TestRemoteStats(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	srv := server.New(tb, server.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	defer func() { cancel(); <-done }()
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out bytes.Buffer
	sh := &remoteShell{c: c, out: &out}
	for _, l := range []string{"parent(a, b).", "?- parent(a, X).", "?- parent(a, X)."} {
		if err := sh.handle(l); err != nil {
			t.Fatalf("handle(%q): %v", l, err)
		}
	}
	out.Reset()
	if err := sh.handle(".stats server."); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var latency string
	for _, l := range lines {
		if !strings.HasPrefix(l, "server.") {
			t.Errorf(".stats server. printed %q", l)
		}
		if strings.HasPrefix(l, "server.request_latency_ns ") {
			latency = l
		}
	}
	if len(lines) < 8 || !strings.Contains(out.String(), "server.requests ") {
		t.Fatalf(".stats server.:\n%s", out.String())
	}
	// Three requests were served; the percentiles print as durations.
	if !strings.Contains(latency, " 3 observed, p50 ") || !strings.HasSuffix(latency, "s") {
		t.Fatalf("latency line %q", latency)
	}

	out.Reset()
	if err := sh.handle(".stats"); err != nil {
		t.Fatal(err)
	}
	ms, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != len(ms) {
		t.Fatalf(".stats printed %d lines for %d metrics", n, len(ms))
	}
	if want := "snapshot.writer_stall_ns"; !strings.Contains(out.String(), want) {
		t.Fatalf(".stats lacks %s:\n%s", want, out.String())
	}
}
