// Command dkbsh is the testbed's User Interface (paper §3.1): an
// interactive shell for a data/knowledge base. A typical session enters
// rules and facts into the workspace D/KB, queries them, and commits
// the workspace to the stored D/KB with .update.
//
// Usage:
//
//	dkbsh                       # in-memory D/KB
//	dkbsh -db family.db         # persistent D/KB
//	dkbsh -connect localhost:7407   # session on a running dkbd server
//
// Input:
//
//	parent(john, mary).                      add a fact
//	ancestor(X, Y) :- parent(X, Y).          add a rule to the workspace
//	?- ancestor(john, W).                    query
//	.load family.dl                          load a program file
//	.update                                  commit workspace rules to the stored D/KB
//	.rules                                   show workspace rules
//	.stored                                  stored D/KB summary
//	.opts naive|seminaive|magic|nomagic|parallel|serial   evaluation options
//	.timing on|off                           print compile/eval breakdowns
//	.sql SELECT ...                          raw SQL against the DBMS
//	.help / .quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/dlog"
	"dkbms/internal/obs"
)

func main() {
	dbPath := flag.String("db", "", "database file (empty = in-memory)")
	connect := flag.String("connect", "", "dkbd server address (remote session instead of in-process D/KB)")
	flag.Parse()

	if *connect != "" {
		if err := runRemote(*connect); err != nil {
			fmt.Fprintf(os.Stderr, "dkbsh: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var tb *dkbms.Testbed
	var err error
	if *dbPath == "" {
		tb = dkbms.NewMemory()
	} else {
		tb, err = dkbms.Open(*dbPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dkbsh: %v\n", err)
			os.Exit(1)
		}
	}
	defer tb.Close()

	sh := &shell{tb: tb, opts: dkbms.QueryOptions{}, out: os.Stdout,
		slow: obs.NewSlowLog(0, 0)}
	fmt.Println("dkbms testbed shell — .help for commands")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("dkb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ".quit" || line == ".exit" {
			return
		}
		if err := sh.handle(line); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

type shell struct {
	tb     *dkbms.Testbed
	opts   dkbms.QueryOptions
	timing bool
	out    io.Writer
	slow   *obs.SlowLog // this session's queries, slowest first (.slowlog)
}

func (s *shell) handle(line string) error {
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
		return s.tb.Load(string(src))
	case line == ".update":
		st, err := s.tb.Update()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "committed %d rules in %v (extract %v, closure %v, store %v)\n",
			st.NewRules, st.Total.Round(10e3), st.Extract.Round(10e3), st.TC.Round(10e3), st.Store.Round(10e3))
		return nil
	case line == ".rules":
		for _, c := range s.tb.Workspace().Rules() {
			fmt.Fprintln(s.out, c.String())
		}
		return nil
	case line == ".stored":
		fmt.Fprintf(s.out, "stored rules: %d, reachability edges: %d\n",
			s.tb.Stored().RuleCount(), s.tb.Stored().ReachableEdges())
		return nil
	case strings.HasPrefix(line, ".opts "):
		return setOpts(s.out, &s.opts, strings.Fields(strings.TrimPrefix(line, ".opts ")))
	case strings.HasPrefix(line, ".timing"):
		s.timing = strings.Contains(line, "on")
		return nil
	case line == ".slowlog":
		printSlowlog(s.out, s.slow.Threshold(), s.slow.Capacity(), s.slow.Recorded(), s.slow.Snapshot())
		return nil
	case strings.HasPrefix(line, ".sql "):
		return s.rawSQL(strings.TrimPrefix(line, ".sql "))
	case strings.HasPrefix(line, ".explain "):
		return s.explain(strings.TrimPrefix(line, ".explain "))
	case strings.HasPrefix(line, ".trace "):
		return s.trace(strings.TrimSpace(strings.TrimPrefix(line, ".trace ")))
	case strings.HasPrefix(line, "."):
		return fmt.Errorf("unknown command %q (.help)", line)
	case strings.HasPrefix(line, "?-"):
		return s.query(line)
	default:
		return s.tb.Load(line)
	}
}

func (s *shell) query(line string) error {
	start := time.Now()
	res, err := s.tb.Query(line, &s.opts)
	s.recordSlow(line, start, res, err)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, res.Format())
	fmt.Fprintf(s.out, "%d rows", len(res.Rows))
	if res.Optimized {
		fmt.Fprint(s.out, " (magic sets)")
	}
	fmt.Fprintf(s.out, " [%s]\n", res.Strategy)
	if s.timing {
		c, e := res.Compile, res.Eval
		fmt.Fprintf(s.out, "compile %v (setup %v, extract %v, dict %v, rewrite %v, order %v, types %v, codegen %v)\n",
			c.Total, c.Setup, c.Extract, c.ReadDict, c.Rewrite, c.EvalOrder, c.TypeCheck, c.CodeGen)
		fmt.Fprintf(s.out, "eval %v (tables %v, rules %v, termination %v)\n",
			e.Elapsed, e.TempTable, e.Eval, e.TermCheck)
		for _, ns := range e.Nodes {
			kind := "pred"
			if ns.Recursive {
				kind = "clique"
			}
			fmt.Fprintf(s.out, "  %s %v: %v in %d iterations, %d tuples\n",
				kind, ns.Preds, ns.Elapsed, ns.Iterations, ns.Tuples)
		}
	}
	return nil
}

// trace runs one query with tracing on and prints the span tree — the
// per-phase, per-iteration, per-operator account of the evaluation.
// With `-o FILE` the tree is written as Chrome trace-event JSON instead,
// loadable in ui.perfetto.dev or chrome://tracing.
func (s *shell) trace(arg string) error {
	outFile, q := parseTraceArgs(arg)
	opts := s.opts
	opts.Trace = true
	start := time.Now()
	res, err := s.tb.Query(q, &opts)
	s.recordSlow(q, start, res, err)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, res.Format())
	fmt.Fprintf(s.out, "%d rows", len(res.Rows))
	if res.Optimized {
		fmt.Fprint(s.out, " (magic sets)")
	}
	fmt.Fprintf(s.out, " [%s]\n", res.Strategy)
	fmt.Fprintf(s.out, "query id %s\n", obs.FormatQueryID(res.QueryID))
	if res.Trace == nil {
		return nil
	}
	if outFile != "" {
		return writeTraceFile(s.out, outFile, res.Trace.Root(), res.QueryID)
	}
	fmt.Fprint(s.out, res.Trace.Format())
	return nil
}

// parseTraceArgs splits a .trace argument into an optional `-o FILE`
// and the query text.
func parseTraceArgs(arg string) (outFile, query string) {
	query = strings.TrimSpace(arg)
	if rest, ok := strings.CutPrefix(query, "-o "); ok {
		rest = strings.TrimSpace(rest)
		if i := strings.IndexAny(rest, " \t"); i > 0 {
			outFile, query = rest[:i], strings.TrimSpace(rest[i:])
		}
	}
	return outFile, query
}

// writeTraceFile exports a span tree as Chrome trace-event JSON.
func writeTraceFile(out io.Writer, path string, root *obs.Span, qid uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, root, qid)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(out, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// recordSlow enters one interactive query into the shell's private
// slow-query ring, mirroring what a dkbd session records server-side.
func (s *shell) recordSlow(src string, start time.Time, res *dkbms.QueryResult, err error) {
	e := obs.SlowQuery{Query: src, Start: start, Latency: time.Since(start)}
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Rows = int64(len(res.Rows))
		e.Iterations = res.Iterations()
		e.Trace = res.Trace.Root()
		e.QueryID = res.QueryID
	}
	s.slow.Record(e)
}

// setOpts applies the words of an .opts command to o, local or remote,
// and prints the resulting settings.
func setOpts(out io.Writer, o *dkbms.QueryOptions, words []string) error {
	for _, w := range words {
		switch w {
		case "naive":
			o.Naive = true
		case "seminaive", "semi-naive":
			o.Naive = false
		case "magic":
			o.NoOptimize = false
		case "nomagic":
			o.NoOptimize = true
		case "parallel":
			o.Parallel = true
		case "serial":
			o.Parallel = false
		default:
			return fmt.Errorf("unknown option %q", w)
		}
	}
	fmt.Fprintf(out, "strategy=%v magic=%v parallel=%v\n",
		map[bool]string{true: "naive", false: "semi-naive"}[o.Naive],
		!o.NoOptimize, o.Parallel)
	return nil
}

func (s *shell) explain(q string) error {
	query, err := dlog.ParseQuery(q)
	if err != nil {
		return err
	}
	compiled, err := s.tb.Compile(query, &s.opts)
	if err != nil {
		return err
	}
	if compiled.Optimized {
		fmt.Fprintln(s.out, "magic-sets rewriting applied")
	}
	fmt.Fprint(s.out, compiled.Program.Explain())
	return nil
}

func (s *shell) rawSQL(stmt string) error {
	up := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(up, "SELECT") {
		rows, err := s.tb.DB().Query(stmt)
		if err != nil {
			return err
		}
		var names []string
		for _, c := range rows.Schema.Columns() {
			names = append(names, c.Name)
		}
		fmt.Fprintln(s.out, strings.Join(names, "\t"))
		for _, tu := range rows.Tuples {
			var cells []string
			for _, v := range tu {
				cells = append(cells, v.String())
			}
			fmt.Fprintln(s.out, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(s.out, "%d rows\n", len(rows.Tuples))
		return nil
	}
	return s.tb.DB().Exec(stmt)
}

func (s *shell) help() {
	fmt.Fprint(s.out, `clauses:   parent(john, mary).    ancestor(X, Y) :- parent(X, Y).
queries:   ?- ancestor(john, W).
commands:
  .load FILE      load a Horn-clause program
  .update         commit workspace rules to the stored D/KB
  .rules          list workspace rules
  .stored         stored D/KB summary
  .opts WORDS     naive|seminaive  magic|nomagic  parallel|serial
  .timing on|off  print compile/eval breakdowns per query
  .explain Q      show the compiled evaluation program for a query
  .trace [-o FILE] Q   run a query traced; print the span tree, or export
                       Chrome/Perfetto trace-event JSON with -o
  .slowlog        this session's queries, slowest first
  .sql STMT       raw SQL against the DBMS
  .quit
`)
}
