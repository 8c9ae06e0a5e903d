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

// TestSharedPoolStress is the scheduler's contention test: many
// sessions run Parallel recursive queries against the testbed's one
// evaluation pool while a writer streams live updates. Every answer
// must be the exact closure (the writer only adds edges *into* c0,
// which never change the closure from c0), no evaluation temp tables
// may leak, and the total goroutine count must stay bounded by
// sessions + pool slots — not sessions × rules.
func TestSharedPoolStress(t *testing.T) {
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
		//dkblint:bounded one goroutine per test session
		go func() {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				res, err := c.Query(q, &QueryOptions{Parallel: true})
				if err != nil {
					errs <- err
					return
				}
				if got := rowsKey(res); got != want {
					errs <- fmt.Errorf("parallel answer drifted:\n got %s\nwant %s", got, want)
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

	// Live maintained views intentionally hold their accumulator temp
	// tables; flush them (and drain any condemned views) so the leak
	// check below sees only genuinely leaked evaluation tables.
	c.Resync()

	// No evaluation temp tables may survive the storm.
	for _, name := range c.Testbed().DB().Catalog().Tables() {
		if strings.HasPrefix(name, "dkb") {
			t.Fatalf("leaked evaluation temp table %q", name)
		}
	}

	// Goroutines: one per session + pool slots + writer + monitor +
	// runtime slack. Unbounded per-rule fan-out would instead add
	// sessions × rules on top.
	st := c.SchedStats()
	if st.Slots != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool slots = %d, want GOMAXPROCS = %d", st.Slots, runtime.GOMAXPROCS(0))
	}
	if st.Submitted == 0 {
		t.Fatal("parallel queries never reached the shared pool")
	}
	limit := int64(baseGoroutines + sessions + st.Slots + 12)
	if p := peak.Load(); p > limit {
		t.Fatalf("peak goroutines %d exceeds bound %d (base %d)", p, limit, baseGoroutines)
	}
}
