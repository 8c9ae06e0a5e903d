package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/obs"
	"dkbms/internal/wire"
)

// runRemote is the shell loop for `dkbsh -connect HOST:PORT`: the same
// clause/query surface, executed on a dkbd server instead of an
// in-process testbed.
func runRemote(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return err
	}

	sh := &remoteShell{c: c, out: os.Stdout, stmts: make(map[uint64]*client.Stmt)}
	fmt.Printf("dkbms testbed shell — connected to %s (.help for commands)\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("dkb> ")
		if !sc.Scan() {
			fmt.Println()
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ".quit" || line == ".exit" {
			return nil
		}
		if err := sh.handle(line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

type remoteShell struct {
	c     *client.Client
	opts  dkbms.QueryOptions
	out   io.Writer
	stmts map[uint64]*client.Stmt
}

func (s *remoteShell) handle(line string) error {
	switch {
	case strings.HasPrefix(line, ".help"):
		s.help()
		return nil
	case strings.HasPrefix(line, ".load "):
		path := strings.TrimSpace(strings.TrimPrefix(line, ".load "))
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return s.c.Load(string(src))
	case strings.HasPrefix(line, ".retract "):
		n, err := s.c.Retract(strings.TrimSpace(strings.TrimPrefix(line, ".retract ")))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "retracted %d facts\n", n)
		return nil
	case strings.HasPrefix(line, ".prepare "):
		stmt, err := s.c.Prepare(strings.TrimSpace(strings.TrimPrefix(line, ".prepare ")), wire.FromOptions(&s.opts))
		if err != nil {
			return err
		}
		s.stmts[stmt.ID] = stmt
		fmt.Fprintf(s.out, "prepared #%d (rule-base generation %d); run with .exec %d\n",
			stmt.ID, stmt.Generation, stmt.ID)
		return nil
	case strings.HasPrefix(line, ".exec "):
		id, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, ".exec ")), 10, 64)
		if err != nil {
			return err
		}
		stmt, ok := s.stmts[id]
		if !ok {
			return fmt.Errorf("no prepared query #%d (.prepare first)", id)
		}
		res, err := stmt.Exec()
		if err != nil {
			return err
		}
		s.printResult(res)
		return nil
	case line == ".stats":
		st, err := s.c.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "sessions %d active / %d total, in-flight %d\n",
			st.ActiveSessions, st.TotalSessions, st.InFlight)
		fmt.Fprintf(s.out, "requests %d (%d errors), p50 %v, p99 %v\n",
			st.Requests, st.Errors, st.P50, st.P99)
		planLookups := st.PlanResultHits + st.PlanHits + st.PlanMisses
		fmt.Fprintf(s.out, "plan cache: %d result hits, %d plan hits, %d misses (hit rate %s)\n",
			st.PlanResultHits, st.PlanHits, st.PlanMisses,
			rate(st.PlanResultHits+st.PlanHits, planLookups))
		fmt.Fprintf(s.out, "buffer pool: %d hits, %d misses, %d evictions (hit rate %s)\n",
			st.PoolHits, st.PoolMisses, st.PoolEvictions,
			rate(st.PoolHits, st.PoolHits+st.PoolMisses))
		fmt.Fprintf(s.out, "traffic in %d B, out %d B; rule-base generation %d\n",
			st.BytesIn, st.BytesOut, st.Generation)
		fmt.Fprintf(s.out, "snapshots: generation %d, %d active readers, %d versions awaiting reclaim, writer stall %v\n",
			st.SnapshotGen, st.SnapshotReaders, st.ReclaimBacklog, st.WriterStall)
		fmt.Fprintf(s.out, "scheduler: %d workers, %d queued, %d submitted, %d stolen inline\n",
			st.SchedWorkers, st.SchedQueued, st.SchedSubmitted, st.SchedStolen)
		fmt.Fprintf(s.out, "views: %d live, %d maintained, %d re-derived, %d delta tuples, %v maintaining\n",
			st.ViewsLive, st.ViewsMaintained, st.ViewsRederives,
			st.ViewsDeltaTuples, st.ViewsMaintainTime)
		fmt.Fprintf(s.out, "queries served %d\n", st.Queries)
		return nil
	case line == ".views":
		vs, err := s.c.Views()
		if err != nil {
			return err
		}
		if len(vs.Views) == 0 {
			fmt.Fprintln(s.out, "no maintained views")
			return nil
		}
		for _, v := range vs.Views {
			fmt.Fprintf(s.out, "%-40q %-11s %6d rows, %d maintains",
				v.Query, v.Policy, v.Rows, v.Maintains)
			if v.Maintains > 0 {
				fmt.Fprintf(s.out, " (last: %d delta tuples in %v)",
					v.LastDeltaTuples, v.LastMaintain)
			}
			fmt.Fprintln(s.out)
		}
		return nil
	case line == ".slowlog":
		sl, err := s.c.Slowlog()
		if err != nil {
			return err
		}
		printSlowlog(s.out, time.Duration(sl.ThresholdNs), int(sl.Capacity), sl.Recorded, sl.Entries)
		return nil
	case strings.HasPrefix(line, ".opts "):
		return setOpts(s.out, &s.opts, strings.Fields(strings.TrimPrefix(line, ".opts ")))
	case strings.HasPrefix(line, ".trace "):
		// Same query path with the TRACE bit set: the server evaluates
		// with tracing and ships the span tree back in the RESULT frame,
		// tagged with the query ID it ran (and was slow-logged) under.
		outFile, q := parseTraceArgs(strings.TrimPrefix(line, ".trace "))
		opts := wire.FromOptions(&s.opts)
		opts.Trace = true
		res, err := s.c.Query(q, opts)
		if err != nil {
			return err
		}
		s.printResult(res)
		if res.Trace == nil {
			return nil
		}
		if outFile != "" {
			return writeTraceFile(s.out, outFile, res.Trace, res.QueryID)
		}
		fmt.Fprint(s.out, obs.Adopt(res.Trace).Format())
		return nil
	case strings.HasPrefix(line, "."):
		return fmt.Errorf("unknown command %q (.help)", line)
	case strings.HasPrefix(line, "?-"):
		res, err := s.c.Query(line, wire.FromOptions(&s.opts))
		if err != nil {
			return err
		}
		s.printResult(res)
		return nil
	default:
		return s.c.Load(line)
	}
}

// rate formats part/whole as a percentage, "n/a" when nothing counted.
func rate(part, whole int64) string {
	if whole <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

func (s *remoteShell) printResult(res *wire.Result) {
	if len(res.Vars) > 0 {
		fmt.Fprintln(s.out, strings.Join(res.Vars, "\t"))
	}
	for _, tu := range res.Rows {
		var cells []string
		for _, v := range tu {
			cells = append(cells, v.String())
		}
		fmt.Fprintln(s.out, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(s.out, "%d rows", len(res.Rows))
	if res.Optimized {
		fmt.Fprint(s.out, " (magic sets)")
	}
	fmt.Fprintf(s.out, " [%s]\n", res.Strategy)
	if res.QueryID != 0 {
		// The server filed this execution in its log and slow-query ring
		// under the echoed ID; /debug/trace?id=... addresses it.
		fmt.Fprintf(s.out, "query id %s\n", obs.FormatQueryID(res.QueryID))
	}
}

func (s *remoteShell) help() {
	fmt.Fprint(s.out, `clauses:   parent(john, mary).    ancestor(X, Y) :- parent(X, Y).
queries:   ?- ancestor(john, W).
commands (remote session):
  .load FILE      load a Horn-clause program into the server
  .retract PAT    retract matching base facts, e.g. .retract parent(john, X)
  .prepare Q      compile a query server-side; returns an id
  .exec ID        run a prepared query
  .stats          server activity counters
  .slowlog        server slow-query log (slowest first)
  .views          live maintained materialized views (most recent first)
  .trace [-o FILE] Q   run a query with server-side tracing; print the span
                       tree, or export Chrome/Perfetto trace-event JSON with -o
  .opts WORDS     naive|seminaive  magic|nomagic|adaptive  parallel|serial
  .quit
`)
}
