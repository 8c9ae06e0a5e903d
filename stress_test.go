package dkbms

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSessionsStress: many sessions run recursive queries
// against one ConcurrentTestbed while a writer streams live updates.
// Every answer must be the exact closure (the writer only adds edges
// *into* c0, which never change the closure from c0), no evaluation
// temp tables may leak, and the total goroutine count must stay bounded
// by the sessions — an evaluation runs on its caller's goroutine.
func TestConcurrentSessionsStress(t *testing.T) {
	const (
		sessions   = 8
		perSession = 6
		chainLen   = 12
	)
	tb := NewMemory()
	c := NewConcurrent(tb)
	defer c.Close()

	var src strings.Builder
	for i := 0; i < chainLen; i++ {
		fmt.Fprintf(&src, "parent(c%d, c%d).\n", i, i+1)
	}
	src.WriteString("ancestor(X, Y) :- parent(X, Y).\n")
	src.WriteString("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n")
	src.WriteString("audit(seed, seed).\n")
	if err := c.Load(src.String()); err != nil {
		t.Fatal(err)
	}

	const q = "?- ancestor(c0, X)."
	baseline, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsKey(baseline)
	if len(baseline.Rows) != chainLen {
		t.Fatalf("baseline closure has %d rows, want %d", len(baseline.Rows), chainLen)
	}

	baseGoroutines := runtime.NumGoroutine()
	var peak atomic.Int64
	monStop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-monStop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Writer: a live stream of cold audit facts plus hot parent edges
	// pointing INTO c0 — real snapshot churn on the queried relation
	// that leaves the answer set untouched.
	writerStop := make(chan struct{})
	writerErr := make(chan error, 1)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-writerStop:
				return
			default:
			}
			if err := c.Load(fmt.Sprintf("audit(a%d, b%d).\nparent(w%d, c0).", i, i, i)); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions*perSession)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				res, err := c.Query(q, nil)
				if err != nil {
					errs <- err
					return
				}
				if got := rowsKey(res); got != want {
					errs <- fmt.Errorf("answer drifted:\n got %s\nwant %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(writerStop)
	writer.Wait()
	close(monStop)
	mon.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}

	// No evaluation temp tables may survive the storm.
	if names := tempTables(c); len(names) != 0 {
		t.Fatalf("leaked evaluation temp tables %v", names)
	}

	// Goroutines: one per session + writer + monitor + runtime slack.
	// Per-rule fan-out would instead add sessions × rules on top.
	limit := int64(baseGoroutines + sessions + 12)
	if p := peak.Load(); p > limit {
		t.Fatalf("peak goroutines %d exceeds bound %d (base %d)", p, limit, baseGoroutines)
	}
}
