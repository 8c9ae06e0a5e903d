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

	sh := &remoteShell{c: c, out: os.Stdout}
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
	c    *client.Client
	opts dkbms.QueryOptions
	out  io.Writer
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
	case line == ".stats" || strings.HasPrefix(line, ".stats "):
		ms, err := s.c.Stats()
		if err != nil {
			return err
		}
		printMetrics(s.out, ms, strings.TrimSpace(strings.TrimPrefix(line, ".stats")))
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
			fmt.Fprintf(s.out, "%-40q %6d rows, %d maintains",
				v.Query, v.Rows, v.Maintains)
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
		opts := s.opts
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
		res, err := s.c.Query(line, s.opts)
		if err != nil {
			return err
		}
		s.printResult(res)
		return nil
	default:
		return s.c.Load(line)
	}
}

// printMetrics prints the server's registry snapshot one metric per
// line, keeping the names that start with prefix. A value whose name
// ends in _ns prints as a duration, and a histogram prints its count
// and its p50 and p99 bucket bounds, the numbers dkbtop shows.
func printMetrics(w io.Writer, ms []obs.Metric, prefix string) {
	for _, m := range ms {
		if !strings.HasPrefix(m.Name, prefix) {
			continue
		}
		v := func(n int64) string {
			if strings.HasSuffix(m.Name, "_ns") {
				return time.Duration(n).String()
			}
			return strconv.FormatInt(n, 10)
		}
		if m.Kind == obs.KindHistogram {
			fmt.Fprintf(w, "%-36s %d observed, p50 %s, p99 %s\n", m.Name, m.Value, v(m.P50), v(m.P99))
		} else {
			fmt.Fprintf(w, "%-36s %s\n", m.Name, v(m.Value))
		}
	}
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
  .stats [PREFIX] server metrics, one per line (e.g. .stats server.)
  .slowlog        server slow-query log (slowest first)
  .views          live maintained materialized views (most recent first)
  .trace [-o FILE] Q   run a query with server-side tracing; print the span
                       tree, or export Chrome/Perfetto trace-event JSON with -o
  .opts WORDS     naive|seminaive  magic|nomagic  parallel|serial
  .quit
`)
}
