// Command benchmark is the D/KBMS benchmark: five workloads, each
// stressing different layers of the testbed, measured end to end and —
// in a separate traced run — layer by layer, with every answer checked
// against an independent oracle. See README.md in this directory.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints the metrics by name and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
// Without --workload it runs all five, one result line each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dkbms"
)

// config is one run's parameters. The seed reaches only the generators.
type config struct {
	workload string
	seed     int64
	// seconds sizes the run: its laps together run the number of
	// operations that take about this long on the reference host
	// (workload.opsFor). The count, not the clock, ends a lap, so a parent
	// and a change run the same work however fast either is.
	seconds float64
	// ops is the number of operations per caller and lap; when 0, run
	// derives it from seconds.
	ops    int
	trace  bool
	sz     sizes
	outDir string
}

// maxSlowdown is how many times its nominal length a phase may take
// before it is cut short with a warning: the driver allows a run 180 s.
const maxSlowdown = 6

// An end-to-end run is laps laps: set up, run the same operations, tear
// down. Every lap does the same work from the same state, so a lap that
// took longer was slowed by something other than the program — this
// shared host has spells, ten seconds to minutes long, in which
// everything takes a quarter longer — and the run reports the keepLaps
// laps with the shortest measured phase, pooled.
const (
	laps     = 5
	keepLaps = 2
)

// maxTracedOps bounds the spans one caller records.
const maxTracedOps = 4000

// result is the line the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Timing are the time-based metrics of an end-to-end run, which are
	// reported and not gated: printed, but not part of the driver's line.
	Timing metrics `json:"-"`
}

func main() {
	var cfg config
	var trace int
	var selfcheck bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all five in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "size of the run: its laps together run the operations that take this long on the reference host")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two sets of runs in child processes and check them against the bounds in BENCHMARK.json")
	flag.IntVar(&runs, "runs", 10, "runs per set for -selfcheck, each with another seed")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for database files and trace output")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sz = fullSizes
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if selfcheck {
		if err := runSelfcheck(cfg, names, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		cfg.workload = name
		res, ops, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		printResult(cfg, ops, res)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run runs one workload and returns its result and the op count per
// caller it was sized to.
func run(cfg config) (result, int, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, 0, err
	}
	if cfg.ops == 0 {
		cfg.ops = w.opsFor(cfg.seconds)
	}
	run := runEndToEnd
	if cfg.trace {
		run = runTraced
	}
	res, err := run(cfg, w)
	return res, cfg.ops, err
}

// scratchDir makes a fresh directory under out for a database file.
func scratchDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "db-")
}

// build sets the workload up in a fresh scratch directory and reports
// how long that took. cleanup closes the instance and removes the
// directory.
func build(cfg config, w workload) (in *instance, took time.Duration, cleanup func() error, err error) {
	dir, err := scratchDir(cfg.outDir)
	if err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	in, err = w.setup(cfg.sz, cfg.seed, dir)
	took = time.Since(t0)
	cleanup = func() error {
		var cerr error
		if in != nil {
			cerr = in.close()
		}
		if rerr := os.RemoveAll(dir); cerr == nil {
			cerr = rerr
		}
		return cerr
	}
	if err != nil {
		_ = cleanup() // the set-up error is the one to report
		return nil, 0, nil, err
	}
	return in, took, cleanup, nil
}

// drive runs every caller of the instance in its own goroutine, each a
// closed loop of ops operations, and returns the merged samples, the
// wall time and (traced) the spans. limit is the nominal length of the
// phase; a caller that has not finished after maxSlowdown times that
// stops, and the run says so.
func drive(in *instance, ops int, limit time.Duration, traced bool) (samples, time.Duration, []*tracer) {
	per := make([]samples, len(in.callers))
	tracers := make([]*tracer, len(in.callers))
	start := time.Now()
	deadline := start.Add(maxSlowdown * limit)
	var wg sync.WaitGroup
	for i, c := range in.callers {
		tr := &tracer{epoch: start}
		tracers[i] = tr
		wg.Add(1)
		//dkblint:bounded one goroutine per closed-loop caller; sizes.callers is the bound
		go func(s *samples, c caller) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				if limit > 0 && time.Now().After(deadline) {
					s.cutShort = ops - n
					return
				}
				o := c.next()
				if !traced {
					t0 := time.Now()
					r, err := c.do(o)
					d := time.Since(t0)
					s.record(o, d, r.answer(), err)
					continue
				}
				tr.op++
				id := tr.begin(spanOp, -1)
				tr.spans[id].Text = o.text
				r, err := c.doTraced(o, tr, id)
				chk := tr.begin(spanCheck, id)
				got := r.answer()
				tr.end(chk)
				d := tr.end(id)
				if err == nil {
					err = c.probe(o, r, tr)
				}
				s.record(o, d, got, err)
			}
		}(&per[i], c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all samples
	for _, s := range per {
		all.merge(s)
	}
	if all.cutShort > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: phase cut short after %v with %d operations to go: this host is more than %d times slower than the reference host\n",
			wall.Round(time.Second), all.cutShort, maxSlowdown)
	}
	if !traced {
		tracers = nil
	}
	return all, wall, tracers
}

// phase returns the op count per caller and the nominal length of a
// phase that is the given share of the whole run.
func (cfg config) phase(share float64) (ops int, limit time.Duration) {
	return max(1, int(float64(cfg.ops*laps)*share)), time.Duration(cfg.seconds * share * float64(time.Second))
}

// finish closes the instance, notes the size the database file ended
// at and, where the workload asks for it, reopens the file and
// re-verifies answers; what that checked is folded into s.
func finish(in *instance, s *samples) (fileBytes int64, err error) {
	if err := in.close(); err != nil {
		return 0, err
	}
	fileBytes = in.fileBytes()
	if in.reverify == nil {
		return fileBytes, nil
	}
	tb, err := dkbms.Open(in.dbPath)
	if err != nil {
		return 0, fmt.Errorf("reopen after clean close: %w", err)
	}
	checked, err := in.reverify(tb)
	if cerr := tb.Close(); err == nil {
		err = cerr
	}
	s.attempted += checked.attempted
	s.failed += checked.failed
	if s.firstFailure == "" && checked.firstFailure != "" {
		s.firstFailure = "after reopen: " + checked.firstFailure
	}
	return fileBytes, err
}

// lap is what one lap of an end-to-end run measured.
type lap struct {
	setup         float64 // seconds
	s             samples
	ops           int // operations of the measured phase
	wall          time.Duration
	before, after procStats
	spaceAmp      float64
}

func runEndToEnd(cfg config, w workload) (result, error) {
	all := make([]lap, laps)
	var total samples
	// Latency samples of earlier laps are still in the heap; they are the
	// harness's, not the program's.
	var harness uint64
	for i := range all {
		l, err := runLap(cfg, w, harness)
		if err != nil {
			return result{}, fmt.Errorf("lap %d: %w", i+1, err)
		}
		harness += uint64(cap(l.s.query)+cap(l.s.update)) * 8
		total.attempted += l.s.attempted
		total.failed += l.s.failed
		if total.firstFailure == "" {
			total.firstFailure = l.s.firstFailure
		}
		all[i] = l
	}
	fmt.Printf("# %s: set-up and measured phase of each lap, s:", cfg.workload)
	for _, l := range all {
		fmt.Printf(" %.3f+%.3f", l.setup, l.wall.Seconds())
	}
	fmt.Println()
	res := conclude(total, metrics{})
	res.Timing = metrics{}
	endToEnd(res.Metrics, res.Timing, all, total.failed > 0)
	return res, nil
}

func runLap(cfg config, w workload, harness uint64) (l lap, err error) {
	in, took, cleanup, err := build(cfg, w)
	if err != nil {
		return lap{}, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()
	l.setup = took.Seconds()
	runtime.GC()
	l.before = readProc()
	l.s, l.wall, _ = drive(in, cfg.ops, time.Duration(cfg.seconds/laps*float64(time.Second)), false)
	runtime.GC()
	l.after = readProc()
	l.ops = l.s.attempted
	l.after.heapLive -= harness + uint64(cap(l.s.query)+cap(l.s.update))*8
	userBytes := in.userBytes()
	stored, err := finish(in, &l.s)
	if err != nil {
		return lap{}, err
	}
	if in.dbPath == "" {
		stored = int64(l.after.heapLive)
	}
	l.spaceAmp = per(float64(stored), float64(userBytes))
	return l, nil
}

func runTraced(cfg config, w workload) (res result, err error) {
	in, _, cleanup, err := build(cfg, w)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()
	r := &tracedRun{in: in}
	runtime.GC()
	r.before = in.snapshot()
	ops, limit := cfg.phase(0.5)
	r.untraced, r.untracedWall, _ = drive(in, ops, limit, false)
	r.after = in.snapshot()
	if in.rewind != nil {
		in.rewind()
	}
	ops, limit = cfg.phase(0.25)
	r.traced, _, r.tracers = drive(in, min(ops, maxTracedOps), limit, true)
	r.layers = in.layerTimes()
	if in.ctb == nil {
		if r.probes.parsePerStmt, r.probes.planPerStmt, err = probeStatements(in.tb, r.layers.lastProgram); err != nil {
			return result{}, fmt.Errorf("statement probe: %w", err)
		}
	}
	if len(in.parallelSlice) > 0 {
		if r.probes.parallelRatio, r.probes.traceOnOverheadPct, err = probeOptions(in.tb, in.parallelSlice); err != nil {
			return result{}, fmt.Errorf("option probe: %w", err)
		}
	}
	all := r.untraced
	all.merge(r.traced)
	// The file is complete only after the clean close.
	if r.fileBytes, err = finish(in, &all); err != nil {
		return result{}, err
	}
	m := metrics{}
	perLayer(m, r)
	if err := writeTrace(cfg, r.tracers); err != nil {
		return result{}, err
	}
	res = conclude(all, m)
	// point_bigedb exists to measure an EDB the buffer pool cannot hold;
	// if it came to fit, the numbers would be closure_cold's again.
	if cfg.workload == "point_bigedb" && cfg.sz == fullSizes && m["storage.pool_misses_per_op"].Value == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: point_bigedb ran without a buffer-pool miss: its EDB no longer outgrows the pool")
		res.Correct = false
	}
	return res, nil
}

func conclude(s samples, m metrics) result {
	if s.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %s\n", s.failed, s.attempted, s.firstFailure)
	}
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// writeTrace writes the spans, one list per caller.
func writeTrace(cfg config, tracers []*tracer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	callers := make([][]span, len(tracers))
	for i, tr := range tracers {
		callers[i] = tr.spans
	}
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "callers": callers,
	})
}

// timingPrefix starts the line that carries an end-to-end run's
// ungated time-based metrics, as JSON, for -selfcheck to read.
const timingPrefix = "timing "

// printResult prints the stamp of what was run, every metric by name
// with its unit, and last the line the driver reads.
func printResult(cfg config, ops int, res result) {
	fmt.Printf("# workload=%s seed=%d seconds=%g laps=%d ops_per_caller_and_lap=%d trace=%v attempted=%d failed=%d commit=%s go=%s nproc=%d gomaxprocs=%d sizes=%+v\n",
		cfg.workload, cfg.seed, cfg.seconds, laps, ops, cfg.trace, res.Attempted, res.Failed, gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.sz)
	printMetrics(res.Metrics)
	if len(res.Timing) > 0 {
		fmt.Println("# reported, not gated:")
		printMetrics(res.Timing)
		fmt.Println(timingPrefix + marshal(res.Timing))
	}
	fmt.Println(marshal(res))
}

func printMetrics(ms metrics) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %16.6f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func marshal(v any) string {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	return string(line)
}
