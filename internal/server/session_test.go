package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/wire"
)

const chainProgram = `
parent(c0, c1). parent(c1, c2). parent(c2, c3). parent(c3, c4).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// TestResultFrameAllocs pins the server's half of a memo hit: once the
// session's buffer has grown to the answer, encoding the RESULT frame
// allocates nothing.
func TestResultFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	const q = "?- ancestor(c0, X)."
	if _, err := tb.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	res, err := tb.Query(q, nil)
	if err != nil || res.Cache != "result" {
		t.Fatalf("second query: cache %q, err %v; want a memo hit", res.Cache, err)
	}
	s := &session{}
	s.out = s.resultFrame(res)
	if n := testing.AllocsPerRun(100, func() { s.out = s.resultFrame(res) }); n != 0 {
		t.Fatalf("encoding a memo hit into a warmed session buffer allocates %v objects", n)
	}
	got, err := wire.DecodeResult(s.out[5:])
	if err != nil || len(got.Rows) != 4 || got.QueryID != res.QueryID {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestSessionHitAllocs pins a session's whole memo hit, from the cache
// lookup to the encoded RESULT frame: the session reads the memo's own
// rows (ConcurrentTestbed.QueryShared) instead of a copy of them, so a
// hit allocates one object fewer than a QueryContext hit does.
func TestSessionHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	s := &session{srv: New(tb, Options{}), ctx: context.Background()}
	s.log = s.srv.log
	const q = "?- ancestor(c0, X)."
	var opts dkbms.QueryOptions
	hit := func() {
		opts = dkbms.QueryOptions{}
		s.out = s.runQuery(q, &opts)
	}
	hit()
	hit()
	hits := tb.PlanStats().ResultHits
	if n := testing.AllocsPerRun(100, hit); n != 2 {
		t.Errorf("a session's memo hit allocates %v objects, want 2", n)
	}
	if got := tb.PlanStats().ResultHits - hits; got != 101 {
		t.Errorf("%d of 101 runs were memo hits", got)
	}
	got, err := wire.DecodeResult(s.out[5:])
	if err != nil || len(got.Rows) != 4 {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestSessionDropsLargeBuffer sends a reply of more than 1 MiB and checks
// the session does not keep the buffer it was built in.
func TestSessionDropsLargeBuffer(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	var facts strings.Builder
	for i := 0; i < 1100; i++ {
		fmt.Fprintf(&facts, "big(k%d, \"%s\").\n", i, strings.Repeat("v", 1000))
	}
	if err := tb.Load(facts.String()); err != nil {
		t.Fatal(err)
	}
	srv := New(tb, Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	defer cancel()

	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("?- big(K, V).", wire.QueryOpts{})
	if err != nil || len(res.Rows) != 1100 {
		t.Fatalf("big answer: %v rows, err %v", len(res.Rows), err)
	}
	srv.mu.Lock()
	var sess *session
	for s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()
	// A small exchange after the large one, then shut down: Serve returns
	// once the session has exited, which orders its last write of the
	// buffers before the reads below.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The session counts a reply's bytes after writing it, so the count
	// is read once the session has exited, not as soon as the reply is in.
	if out := srv.Stats().BytesOut; out < 1<<20 {
		t.Fatalf("the reply was %d bytes, want at least 1 MiB", out)
	}
	if cap(sess.out) > 64<<10 || cap(sess.in) > 64<<10 {
		t.Fatalf("session still holds %d-byte reply and %d-byte request buffers", cap(sess.out), cap(sess.in))
	}
}
