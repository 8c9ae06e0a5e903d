package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/server"
	"dkbms/internal/wire"
)

func init() {
	register("server-scaling", "concurrent clients against one dkbd server",
		serverScaling)
}

// serverScaling measures query throughput and latency as independent
// client sessions are added against a single shared D/KB server. Every
// request is a QUERY frame for the same recursive query, so the run
// exercises the whole shared read path: the first request compiles and
// evaluates the LFP, and every identical repeat hits the server-wide
// plan cache (memoized answer while the D/KB stands still) over the
// buffer pool. Read QPS should therefore climb with the client count
// until the available cores saturate, instead of flatlining on a
// per-request recompile + re-evaluation.
func serverScaling(cfg Config) (*Report, error) {
	// Shared D/KB: a parent chain plus the recursive ancestor rules, so
	// the cold request is a genuine LFP evaluation, not a lookup.
	chain := cfg.pick(64, 16)
	var src []byte
	for i := 0; i < chain; i++ {
		src = append(src, fmt.Sprintf("parent(c%d, c%d).\n", i, i+1)...)
	}
	src = append(src, "ancestor(X, Y) :- parent(X, Y).\n"...)
	src = append(src, "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n"...)

	clientCounts := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		clientCounts = []int{1, 4}
	}
	perClient := cfg.pick(40, 4)

	rep := &Report{
		ID:    "server-scaling",
		Title: "concurrent clients against one dkbd server",
		Paper: "the testbed is single-user; this measures the server subsystem's read concurrency",
		Cols: []string{"clients", "requests", "elapsed_ms", "req_per_s", "p50_us", "p99_us",
			"plan_result_hits", "plan_misses", "pool_hits", "pool_misses"},
	}

	var oneClient float64
	for _, nClients := range clientCounts {
		tb := dkbms.NewConcurrent(dkbms.NewMemory())
		if err := tb.Load(string(src)); err != nil {
			tb.Close()
			return nil, err
		}
		elapsed, stats, err := driveClients(tb, nClients, perClient)
		plan, pool := tb.PlanStats(), tb.PagerStats()
		tb.Close()
		if err != nil {
			return nil, err
		}
		total := nClients * perClient
		rps := float64(total) / elapsed.Seconds()
		if nClients == 1 {
			oneClient = rps
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", nClients),
			fmt.Sprintf("%d", total),
			ms(elapsed),
			fmt.Sprintf("%.0f", rps),
			us(stats.P50),
			us(stats.P99),
			fmt.Sprintf("%d", plan.ResultHits),
			fmt.Sprintf("%d", plan.Misses),
			fmt.Sprintf("%d", pool.Hits),
			fmt.Sprintf("%d", pool.Misses),
		})
	}
	if oneClient > 0 && len(clientCounts) > 1 {
		last := clientCounts[len(clientCounts)-1]
		lastRow := rep.Rows[len(rep.Rows)-1]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"throughput at %d clients is %s req/s vs %.0f req/s single-client (%d CPUs, GOMAXPROCS %d)",
			last, lastRow[3], oneClient, runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	}
	return rep, nil
}

// driveClients serves tb on a loopback port, runs nClients sessions each
// issuing perClient QUERY requests for the same query text, and returns
// the wall time for the whole volley plus the server's final stats.
func driveClients(tb *dkbms.ConcurrentTestbed, nClients, perClient int) (time.Duration, wire.ServerStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := server.New(tb, server.Options{MaxConns: nClients + 1})
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		return 0, wire.ServerStats{}, err
	}

	clients := make([]*client.Client, nClients)
	for i := range clients {
		c, err := client.Dial(addr.String())
		if err != nil {
			return 0, wire.ServerStats{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	const query = "?- ancestor(c0, X)."
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		//dkblint:bounded one goroutine per configured bench client
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if _, err := clients[i].Query(query, wire.QueryOpts{}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, wire.ServerStats{}, err
	}
	stats := srv.Stats()
	cancel()
	if err := <-done; err != nil {
		return 0, wire.ServerStats{}, err
	}
	return elapsed, stats, nil
}
