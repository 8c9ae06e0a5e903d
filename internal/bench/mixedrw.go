package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/server"
	"dkbms/internal/wire"
)

func init() {
	register("mixed-rw", "concurrent readers under a write stream (snapshot isolation)",
		mixedRW)
}

// mixedRW measures read latency while a fraction of the request stream
// mutates the D/KB. Under the old exclusive-writer lock every LOAD
// stalled all readers for the full commit; under snapshot isolation
// readers pin the published snapshot and continue while the writer
// builds copy-on-write table versions off to the side. Two write
// targets separate the remaining costs:
//
//   - cold: writes append to a relation the query never reads. The
//     memoized answer stays valid (per-table invalidation), so read
//     latency should sit at the read-only baseline.
//   - hot: writes append to the queried relation, so every commit
//     invalidates the memoized answer and reads pay a re-evaluation
//     (with the cached plan). Latency is bounded by evaluation cost,
//     not by waiting out the writer.
func mixedRW(cfg Config) (*Report, error) {
	chain := cfg.pick(64, 16)
	var src []byte
	for i := 0; i < chain; i++ {
		src = append(src, fmt.Sprintf("parent(c%d, c%d).\n", i, i+1)...)
	}
	src = append(src, "ancestor(X, Y) :- parent(X, Y).\n"...)
	src = append(src, "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n"...)
	// The cold-write relation exists up front: creating a relation
	// mid-run would grow the schema (a rule-generation event), which is
	// not the steady state this experiment measures.
	src = append(src, "audit(seed, seed).\n"...)

	type point struct {
		clients  int
		writePct int
		target   string // "hot" | "cold" | "-" for read-only
	}
	points := []point{
		{8, 0, "-"},
		{8, 10, "cold"},
		{8, 10, "hot"},
		{8, 50, "cold"},
		{8, 50, "hot"},
		{16, 10, "hot"},
	}
	if cfg.Quick {
		points = []point{{2, 0, "-"}, {2, 50, "cold"}, {2, 50, "hot"}}
	}
	perClient := cfg.pick(40, 4)

	rep := &Report{
		ID:    "mixed-rw",
		Title: "concurrent readers under a write stream (snapshot isolation)",
		Paper: "the testbed is single-user; this measures reader latency while the D/KB is updated",
		Cols: []string{"clients", "write_pct", "target", "reads", "writes",
			"read_p50_us", "read_p99_us", "commits", "copied_tables", "stall_ms",
			"result_hits", "plan_hits"},
	}

	var baselineP99, coldWorstP99, hotWorstP99 time.Duration
	for _, pt := range points {
		tb := dkbms.NewConcurrent(dkbms.NewMemory())
		if err := tb.Load(string(src)); err != nil {
			tb.Close()
			return nil, err
		}
		lats, writes, err := driveMixed(tb, pt.clients, perClient, pt.writePct, pt.target)
		snap, plan := tb.SnapshotStats(), tb.PlanStats()
		tb.Close()
		if err != nil {
			return nil, err
		}
		p50, p99 := latPercentiles(lats)
		if pt.writePct == 0 && baselineP99 == 0 {
			baselineP99 = p99
		}
		if pt.target == "cold" && p99 > coldWorstP99 {
			coldWorstP99 = p99
		}
		if pt.target == "hot" && p99 > hotWorstP99 {
			hotWorstP99 = p99
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", pt.clients),
			fmt.Sprintf("%d", pt.writePct),
			pt.target,
			fmt.Sprintf("%d", len(lats)),
			fmt.Sprintf("%d", writes),
			us(p50),
			us(p99),
			fmt.Sprintf("%d", snap.Commits),
			fmt.Sprintf("%d", snap.CopiedTables),
			ms(snap.WriterStall),
			fmt.Sprintf("%d", plan.ResultHits),
			fmt.Sprintf("%d", plan.PlanHits),
		})
	}
	if baselineP99 > 0 && coldWorstP99 > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"untouched-table reads: worst cold-write p99 is %.1fx the read-only baseline (%v vs %v) — the write stream does not stall them",
			float64(coldWorstP99)/float64(baselineP99), coldWorstP99.Round(time.Microsecond),
			baselineP99.Round(time.Microsecond)))
	}
	if hotWorstP99 > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"touched-table reads: worst hot-write p99 is %v — bounded by re-evaluating the invalidated closure (plan cached), not by waiting out writers",
			hotWorstP99.Round(time.Millisecond)))
	}
	return rep, nil
}

// driveMixed serves tb on a loopback port and runs nClients sessions,
// each issuing perClient requests of which writePct percent are LOAD
// frames appending a fresh fact to the target relation ("hot" = the
// queried parent relation, "cold" = the unrelated audit relation) and
// the rest are QUERY frames for the ancestor closure. It returns the
// read latencies and the write count.
func driveMixed(tb *dkbms.ConcurrentTestbed, nClients, perClient, writePct int, target string) ([]time.Duration, int, error) {
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
		return nil, 0, err
	}

	clients := make([]*client.Client, nClients)
	for i := range clients {
		c, err := client.Dial(addr.String())
		if err != nil {
			return nil, 0, err
		}
		defer c.Close()
		clients[i] = c
	}

	const query = "?- ancestor(c0, X)."
	// One untimed warm-up so every row measures the steady state, not
	// the first request's cold compile + LFP evaluation.
	if _, err := clients[0].Query(query, wire.QueryOpts{}); err != nil {
		return nil, 0, err
	}
	every := 0 // a write every Nth request
	if writePct > 0 {
		every = 100 / writePct
		if every < 1 {
			every = 1
		}
	}
	perLat := make([][]time.Duration, nClients)
	perWrites := make([]int, nClients)
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if every > 0 && j%every == 0 {
					fact := fmt.Sprintf("audit(w%d_%d, w%d_%d).", i, j, i, j)
					if target == "hot" {
						// A fresh edge INTO the chain root: the queried
						// closure's answer is unchanged (nothing new is
						// reachable from c0), but the parent relation's
						// version moves, so every commit invalidates the
						// memoized answer and reads pay one re-evaluation.
						fact = fmt.Sprintf("parent(w%d_%d, c0).", i, j)
					}
					if err := clients[i].Load(fact); err != nil {
						errs <- err
						return
					}
					perWrites[i]++
					continue
				}
				t0 := time.Now()
				if _, err := clients[i].Query(query, wire.QueryOpts{}); err != nil {
					errs <- err
					return
				}
				perLat[i] = append(perLat[i], time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, 0, err
	}
	cancel()
	if err := <-done; err != nil {
		return nil, 0, err
	}
	var lats []time.Duration
	writes := 0
	for i := range perLat {
		lats = append(lats, perLat[i]...)
		writes += perWrites[i]
	}
	return lats, writes, nil
}

// latPercentiles returns p50 and p99 over the samples (0, 0 when empty).
func latPercentiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		return sorted[int(q*float64(len(sorted)-1))]
	}
	return rank(0.50), rank(0.99)
}
