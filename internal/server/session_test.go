package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/wire"
)

const chainProgram = `
parent(c0, c1). parent(c1, c2). parent(c2, c3). parent(c3, c4).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`

// chainLoad is a LOAD of a parent chain c0 -> c1 -> ... -> cn.
func chainLoad(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "parent(c%d, c%d).\n", i, i+1)
	}
	return b.String()
}

// TestResultFrameAllocs pins the server's half of a memo hit: the
// RESULT frame copies the memo's own row block (QueryShared), and once
// the session's buffer has grown to the answer, encoding it allocates
// nothing.
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
	ctx := context.Background()
	if _, _, err := tb.QueryShared(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	res, block, err := tb.QueryShared(ctx, q, nil)
	if err != nil || res.Cache != "result" {
		t.Fatalf("second query: cache %q, err %v; want a memo hit", res.Cache, err)
	}
	if res.Rows != nil || len(block) == 0 {
		t.Fatalf("a shared memo hit carries %d rows and a %d-byte block; want only the block", len(res.Rows), len(block))
	}
	s := &session{}
	s.out = s.resultFrame(res, block)
	if n := testing.AllocsPerRun(100, func() { s.out = s.resultFrame(res, block) }); n != 0 {
		t.Fatalf("encoding a memo hit into a warmed session buffer allocates %v objects", n)
	}
	got, err := wire.DecodeResult(s.out[5:])
	if err != nil || len(got.Rows) != 4 || got.QueryID != res.QueryID {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestSessionHitAllocs pins a session's whole memo hit, from the cache
// lookup to the encoded RESULT frame: the session copies the memo's row
// block into the frame (ConcurrentTestbed.QueryShared), decoding and
// encoding no row, so a hit allocates the same on a 4-row answer as on
// a 440-row one: at most 2 objects.
func TestSessionHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	if err := tb.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := tb.Load("edge(X, Y) :- link(X, Y).\n" + strings.ReplaceAll(chainLoad(440), "parent(", "link(")); err != nil {
		t.Fatal(err)
	}
	s := &session{srv: New(tb, Options{}), ctx: context.Background()}
	s.log = s.srv.log
	var allocs []float64
	for _, c := range []struct {
		q    string
		rows int
	}{{"?- ancestor(c0, X).", 4}, {"?- edge(X, Y).", 440}} {
		var opts dkbms.QueryOptions
		hit := func() {
			opts = dkbms.QueryOptions{}
			s.out = s.runQuery(c.q, &opts)
		}
		hit()
		hit()
		hits := tb.PlanStats().ResultHits
		n := testing.AllocsPerRun(100, hit)
		if got := tb.PlanStats().ResultHits - hits; got != 101 {
			t.Errorf("%s: %d of 101 runs were memo hits", c.q, got)
		}
		got, err := wire.DecodeResult(s.out[5:])
		if err != nil || len(got.Rows) != c.rows {
			t.Fatalf("%s: decoded %d rows, %v; want %d", c.q, len(got.Rows), err, c.rows)
		}
		allocs = append(allocs, n)
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Errorf("a session's memo hit allocates %v objects at 4 rows and %v at 440; want the same, at most 2", allocs[0], allocs[1])
	}
}

// TestSessionEndsAfterDrainedRequest pins the drain check at the top of
// session.serve's loop: a session whose context is cancelled while it
// serves a request writes the reply and returns, without waiting on its
// client for another request. Nothing else wakes it here: no server
// drain poisons its read deadline.
func TestSessionEndsAfterDrainedRequest(t *testing.T) {
	tb := dkbms.NewConcurrent(dkbms.NewMemory())
	defer tb.Close()
	peer, conn := net.Pipe()
	defer peer.Close()
	s := newSession(New(tb, Options{}), conn)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.serve(ctx)
		close(done)
	}()
	// A pipe write returns once the session has read the whole frame;
	// the session then blocks writing the reply until it is read.
	if _, err := wire.WriteFrame(peer, wire.Frame(nil, wire.MsgPing)); err != nil {
		t.Fatal(err)
	}
	cancel()
	typ, _, _, err := wire.ReadFrame(peer, nil)
	if err != nil || typ != wire.MsgPong {
		t.Fatalf("reply to the in-flight request: %v, %v; want PONG", typ, err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("the session waited on its client after its context was cancelled")
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
