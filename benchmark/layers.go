package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/codegen"
	"dkbms/internal/db"
	"dkbms/internal/matview"
	"dkbms/internal/plan"
	"dkbms/internal/sched"
	"dkbms/internal/snapshot"
	"dkbms/internal/sql"
	"dkbms/internal/storage"
	"dkbms/internal/wire"
)

// Layers are measured from outside: by differencing the public Stats
// snapshots below across a phase, and by timing calls into public
// functions. Nothing here reaches into the program.

// layerSnap is every public counter the harness reads, taken while no
// caller is running.
type layerSnap struct {
	db     db.Stats
	pager  storage.PagerStats
	tables int
	rules  int
	// Heap and index traffic over the catalog's base tables. Only
	// meaningful on a plain Testbed: a ConcurrentTestbed's commits
	// replace tables, and the replacements' counters start over.
	heapRead                         int64
	idxSearches, idxSplits, idxDepth int64
	// Server workloads only.
	plan  dkbms.PlanCacheStats
	snap  snapshot.Stats
	mv    matview.Stats
	sched sched.Stats
	srv   wire.ServerStats
	proc  procStats
}

func (in *instance) snapshot() layerSnap {
	d := in.tb.DB()
	s := layerSnap{db: d.StatsSnapshot(), pager: d.PagerStats(), rules: in.tb.Stored().RuleCount(), proc: readProc()}
	cat := d.Catalog()
	names := cat.Tables()
	s.tables = len(names)
	for _, name := range names {
		t := cat.Table(name)
		if t == nil || t.Temp {
			continue
		}
		hs := t.Heap.Stats()
		s.heapRead += hs.Reads + hs.RecsScanned
		for _, ix := range t.Indexes {
			ts := ix.Stats()
			s.idxSearches += ts.Searches
			s.idxSplits += ts.Splits
			s.idxDepth = max(s.idxDepth, ts.Height)
		}
	}
	if in.ctb != nil {
		s.plan = in.ctb.PlanStats()
		s.snap = in.ctb.SnapshotStats()
		s.mv = in.ctb.MatViewStats()
		s.sched = in.ctb.SchedStats()
		s.srv = in.srv.Stats()
	}
	return s
}

// fileBytes is the size of the database file, 0 in memory.
func (in *instance) fileBytes() int64 {
	if in.dbPath == "" {
		return 0
	}
	fi, err := os.Stat(in.dbPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// probes are the traced run's side measurements.
type probes struct {
	parsePerStmt, planPerStmt time.Duration
	parallelRatio             float64
	traceOnOverheadPct        float64
}

// probeStatements times sql.Parse and plan.BuildSelect on the
// statements of a compiled query program — the work db.Exec repeats for
// every statement of every LFP iteration. Derived relations are stood
// in for by empty temp tables of the right schema.
func probeStatements(tb *dkbms.Testbed, prog *codegen.Program) (parse, build time.Duration, err error) {
	if prog == nil {
		return 0, 0, nil
	}
	d := tb.DB()
	standIn := map[string]string{}
	defer func() {
		for _, name := range standIn {
			if derr := d.Exec("DROP TABLE " + name); err == nil {
				err = derr
			}
		}
	}()
	for pred, schema := range prog.Schemas {
		name := fmt.Sprintf("benchprobe_%d", len(standIn))
		cols := make([]string, schema.Len())
		for i := range cols {
			cols[i] = schema.Col(i).Name + " " + schema.Col(i).Type.String()
		}
		if err := d.Exec("CREATE TEMP TABLE " + name + " (" + strings.Join(cols, ", ") + ")"); err != nil {
			return 0, 0, err
		}
		standIn[pred] = name
	}
	tableOf := func(pred string) string {
		if name, ok := standIn[pred]; ok {
			return name
		}
		return codegen.BaseTable(pred)
	}
	var stmts []string
	for _, n := range prog.Nodes {
		for _, r := range n.ExitRules {
			stmts = append(stmts, r.SQL(tableOf))
		}
		for _, r := range n.RecursiveRules {
			stmts = append(stmts, r.SQL(tableOf))
		}
	}
	const rounds = 50
	n := 0
	for i := 0; i < rounds; i++ {
		for _, text := range stmts {
			t0 := time.Now()
			st, err := sql.Parse(text)
			t1 := time.Now()
			if err != nil {
				return 0, 0, err
			}
			sel, ok := st.(*sql.Select)
			if !ok {
				return 0, 0, fmt.Errorf("statement probe: %q is not a SELECT", text)
			}
			if _, err := plan.BuildSelect(d, sel); err != nil {
				return 0, 0, err
			}
			parse += t1.Sub(t0)
			build += time.Since(t1)
			n++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return parse / time.Duration(n), build / time.Duration(n), nil
}

// probeOptions runs a fixed slice of queries three ways — default
// options, Parallel, Trace — and reports wall time relative to default:
// the price tags of the scheduler and of the program's own tracing. The
// three take turns for three rounds and the median round counts.
func probeOptions(tb *dkbms.Testbed, texts []string) (parallelRatio, traceOverheadPct float64, err error) {
	modes := []*dkbms.QueryOptions{nil, {Parallel: true}, {Trace: true}}
	took := make([][]float64, len(modes))
	for round := 0; round < 3; round++ {
		for i, opts := range modes {
			t0 := time.Now()
			for _, q := range texts {
				if _, err := tb.Query(q, opts); err != nil {
					return 0, 0, err
				}
			}
			took[i] = append(took[i], float64(time.Since(t0)))
		}
	}
	base := median(took[0])
	return per(median(took[1]), base), 100 * (per(median(took[2]), base) - 1), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd fills the gated metrics, which a user of the system sees and
// which repeat on this host — what a set-up costs, what an operation
// allocates, what the D/KB holds on to and occupies — and, in timing,
// the time-based ones, which do not repeat here within a tenth and are
// therefore reported and not gated (README, "Bounds").
//
// Host noise only ever adds time, so setup_s is the shortest of the
// laps' set-ups and the timing comes from the keepLaps laps whose
// measured phase was shortest, pooled. What an operation allocates and
// what is left when a lap ends does not depend on the host's speed but,
// with two callers, on how they interleaved: those are means over all
// laps.
func endToEnd(gated, timing metrics, all []lap, failed bool) {
	setup := all[0].setup
	var ops, mallocs, allocBytes, heapLive, spaceAmp float64
	for _, l := range all {
		setup = min(setup, l.setup)
		ops += float64(l.ops)
		mallocs += float64(l.after.mallocs - l.before.mallocs)
		allocBytes += float64(l.after.allocBytes - l.before.allocBytes)
		heapLive += float64(l.after.heapLive)
		spaceAmp += l.spaceAmp
	}
	n := float64(len(all))
	gated.set("setup_s", setup, "s")
	gated.set("allocs_per_op", per(mallocs, ops), "count")
	gated.set("alloc_kb_per_op", per(allocBytes/1024, ops), "KiB")
	// What the D/KB holds on to when a lap ends, and what it occupies
	// where it lives (its file; the live heap for an in-memory one) over
	// the bytes of the user's facts and rules in it.
	gated.set("heap_live_mb", heapLive/n/(1<<20), "MiB")
	gated.set("space_amp", spaceAmp/n, "ratio")

	kept := append([]lap(nil), all...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].wall < kept[j].wall })
	kept = kept[:min(keepLaps, len(kept))]
	var s samples
	var wall, cpu time.Duration
	ops = 0
	for _, l := range kept {
		s.merge(l.s)
		wall += l.wall
		cpu += l.after.cpu - l.before.cpu
		ops += float64(l.ops)
	}
	if failed {
		s.query = nil // a run with wrong answers has no throughput to report
	}
	timed(timing, s, wall, cpu, ops)
}

// timed fills the time-based metrics of one measured phase: the
// callers' latencies, throughput, CPU time.
func timed(m metrics, s samples, wall, cpu time.Duration, ops float64) {
	q := percentiles(s.query, 0.50, 0.95)
	m.set("query_p50_ms", q[0], "ms")
	m.set("query_p95_ms", q[1], "ms")
	m.set("queries_per_s", per(float64(len(s.query)), wall.Seconds()), "1/s")
	u := percentiles(s.update, 0.50, 0.95)
	m.set("update_p50_ms", u[0], "ms")
	m.set("update_p95_ms", u[1], "ms")
	m.set("cpu_ms_per_op", per(ms(cpu), ops), "ms")
}

// tracedRun is everything a traced run collected.
type tracedRun struct {
	in            *instance
	before, after layerSnap // around the untraced phase
	untraced      samples
	untracedWall  time.Duration
	traced        samples
	tracers       []*tracer
	layers        *layerTimes
	probes        probes
	fileBytes     int64
}

// perLayer fills the single-layer metrics. Counts come from the
// untraced phase (the program's real path), times of the calls below
// the entry point from the traced phase. A layer a workload bypasses
// reports 0.
func perLayer(m metrics, r *tracedRun) {
	u := r.untraced
	ops := float64(u.attempted)
	queries := float64(len(u.query))
	d := func(after, before int64) float64 { return float64(after - before) }
	b, a := r.before, r.after
	lt := r.layers
	tq := float64(lt.queries) // traced queries
	tu := float64(lt.updates)

	// The time-based metrics a user sees, reported and not gated, and the
	// tails. Updates are those of the measured mix (km_rules, serve_churn).
	timed(m, u, r.untracedWall, a.proc.cpu-b.proc.cpu, ops)
	m.set("error_rate", per(float64(u.failed+r.traced.failed), float64(u.attempted+r.traced.attempted)), "ratio")
	m.set("client.queries", queries, "count")
	m.set("client.updates", float64(len(u.update)), "count")
	qq := percentiles(u.query, 0.99, 1)
	m.set("client.query_p99_ms", qq[0], "ms")
	m.set("client.query_max_ms", qq[1], "ms")
	m.set("client.update_p99_ms", percentiles(u.update, 0.99)[0], "ms")

	// wire and server.
	srvReq := d(a.srv.Requests, b.srv.Requests)
	m.set("wire.request_bytes_per_op", per(d(a.srv.BytesIn, b.srv.BytesIn), srvReq), "B")
	m.set("wire.reply_bytes_per_op", per(d(a.srv.BytesOut, b.srv.BytesOut), srvReq), "B")
	m.set("wire.encode_us_per_op", per(us(lt.wireEncode), float64(lt.wireOps)), "us")
	m.set("wire.decode_us_per_op", per(us(lt.wireDecode), float64(lt.wireOps)), "us")
	m.set("server.requests", srvReq, "count")
	m.set("server.errors", d(a.srv.Errors, b.srv.Errors), "count")
	m.set("server.handle_p50_us", us(a.srv.P50), "us")
	m.set("server.handle_p99_us", us(a.srv.P99), "us")
	// Medians, so that the round trips that found a stale memo and
	// evaluated (serve_churn) do not pass for session overhead.
	m.set("server.overhead_us_per_op", 1000*(percentiles(lt.roundTrips, 0.5)[0]-percentiles(lt.replays, 0.5)[0]), "us")

	// plan cache.
	hits, planHits, misses := d(a.plan.ResultHits, b.plan.ResultHits), d(a.plan.PlanHits, b.plan.PlanHits), d(a.plan.Misses, b.plan.Misses)
	m.set("plancache.result_hits", hits, "count")
	m.set("plancache.plan_hits", planHits, "count")
	m.set("plancache.misses", misses, "count")
	m.set("plancache.invalidations", d(a.plan.Invalidations, b.plan.Invalidations), "count")
	m.set("plancache.entries", float64(a.plan.Entries), "count")
	m.set("plancache.result_hit_ratio", per(hits, hits+planHits+misses), "ratio")
	m.set("plancache.hit_us_per_op", per(us(lt.replayHitTime), float64(lt.replayHits)), "us")

	// snapshot store and view maintenance, per commit.
	commits := d(a.snap.Commits, b.snap.Commits)
	m.set("snapshot.commits", commits, "count")
	m.set("snapshot.copied_tables_per_commit", per(d(a.snap.CopiedTables, b.snap.CopiedTables), commits), "count")
	m.set("snapshot.writer_stall_ms_per_commit", per(ms(a.snap.WriterStall-b.snap.WriterStall), commits), "ms")
	m.set("snapshot.reclaimed_tables", d(a.snap.ReclaimedTables, b.snap.ReclaimedTables), "count")
	m.set("snapshot.reclaim_backlog_end", float64(a.snap.ReclaimBacklog), "count")
	m.set("snapshot.live_versions_end", float64(a.snap.LiveVersions), "count")
	m.set("matview.maintained", d(a.mv.Maintained, b.mv.Maintained), "count")
	m.set("matview.rederives", d(a.mv.Rederives, b.mv.Rederives), "count")
	m.set("matview.delta_tuples_per_commit", per(d(a.mv.DeltaTuples, b.mv.DeltaTuples), commits), "count")
	m.set("matview.maintain_ms_per_commit", per(ms(a.mv.MaintainTime-b.mv.MaintainTime), commits), "ms")
	m.set("matview.live_end", float64(a.mv.Live), "count")
	m.set("matview.errors", d(a.mv.Errors, b.mv.Errors), "count")

	// Knowledge Manager: parse, compile phases, stored-rule update.
	c := lt.compile
	m.set("dlog.parse_us_per_op", per(us(lt.parse), tq), "us")
	m.set("core.compile_us_per_op", per(us(c.Total), tq), "us")
	m.set("core.setup_us_per_op", per(us(c.Setup), tq), "us")
	m.set("core.extract_us_per_op", per(us(c.Extract), tq), "us")
	m.set("core.readdict_us_per_op", per(us(c.ReadDict), tq), "us")
	m.set("core.rewrite_us_per_op", per(us(c.Rewrite), tq), "us")
	m.set("core.evalorder_us_per_op", per(us(c.EvalOrder), tq), "us")
	m.set("core.typecheck_us_per_op", per(us(c.TypeCheck), tq), "us")
	m.set("core.codegen_us_per_op", per(us(c.CodeGen), tq), "us")
	m.set("core.relevant_rules_per_op", per(float64(c.RelevantRules), tq), "count")
	up := lt.update
	m.set("stored.update_us_per_op", per(us(up.Total), tu), "us")
	m.set("stored.update_extract_us_per_op", per(us(up.Extract), tu), "us")
	m.set("stored.update_tc_us_per_op", per(us(up.TC), tu), "us")
	m.set("stored.update_store_us_per_op", per(us(up.Store), tu), "us")
	m.set("stored.tc_edges_per_update", per(float64(up.TCEdges), tu), "count")
	m.set("stored.rules_end", float64(a.rules), "count")

	// Run-time library. On a server workload these describe the direct
	// replays, so a workload of result hits reports 0 iterations.
	evals := tq
	if r.in.ctb != nil {
		evals = float64(len(lt.replays))
	}
	m.set("rtlib.evaluate_ms_per_op", per(ms(lt.eval.Elapsed), evals), "ms")
	m.set("rtlib.rule_eval_ms_per_op", per(ms(lt.eval.Eval), evals), "ms")
	m.set("rtlib.temptable_ms_per_op", per(ms(lt.eval.TempTable), evals), "ms")
	m.set("rtlib.termcheck_ms_per_op", per(ms(lt.eval.TermCheck), evals), "ms")
	m.set("rtlib.iterations_per_op", per(float64(lt.iterations), evals), "count")
	m.set("rtlib.derived_tuples_per_op", per(float64(lt.derivedTuples), evals), "count")

	// DBMS statements, and what parsing and planning them costs.
	selects, inserts := d(a.db.Selects, b.db.Selects), d(a.db.Inserts, b.db.Inserts)
	m.set("db.selects_per_op", per(selects, ops), "count")
	m.set("db.inserts_per_op", per(inserts, ops), "count")
	m.set("db.inserted_rows_per_op", per(d(a.db.InsertedRows, b.db.InsertedRows), ops), "count")
	m.set("db.deletes_per_op", per(d(a.db.Deletes, b.db.Deletes), ops), "count")
	m.set("db.ddl_per_op", per(d(a.db.DDL, b.db.DDL), ops), "count")
	m.set("sql.parse_us_per_stmt", us(r.probes.parsePerStmt), "us")
	m.set("plan.build_us_per_stmt", us(r.probes.planPerStmt), "us")
	// Share of a query's time that went to parsing and planning its
	// statements again: per-statement cost x statements per op / op time.
	stmtsPerOp := per(selects+inserts, ops)
	m.set("db.parse_plan_share_pct", 100*per(float64(r.probes.parsePerStmt+r.probes.planPerStmt)*stmtsPerOp, float64(mean(u.query))), "%")

	// exec, index, storage, catalog.
	var heapRead, idxSearches, idxSplits, idxDepth float64
	if r.in.ctb == nil {
		heapRead, idxSearches, idxSplits, idxDepth = d(a.heapRead, b.heapRead), d(a.idxSearches, b.idxSearches), d(a.idxSplits, b.idxSplits), float64(a.idxDepth)
	}
	m.set("exec.rows_read_per_result_row", per(heapRead, max(float64(u.rows), 1)), "count")
	m.set("index.searches_per_op", per(idxSearches, ops), "count")
	m.set("index.depth_max", idxDepth, "count")
	m.set("index.splits", idxSplits, "count")
	poolHits, poolMisses := d(a.pager.Hits, b.pager.Hits), d(a.pager.Misses, b.pager.Misses)
	m.set("storage.pool_hits_per_op", per(poolHits, ops), "count")
	m.set("storage.pool_misses_per_op", per(poolMisses, ops), "count")
	m.set("storage.pool_hit_ratio", per(poolHits, poolHits+poolMisses), "ratio")
	m.set("storage.evictions_per_op", per(d(a.pager.Evictions, b.pager.Evictions), ops), "count")
	m.set("storage.page_writes_per_op", per(d(a.pager.Writes, b.pager.Writes), ops), "count")
	m.set("storage.pages_end", float64(r.fileBytes/storage.PageSize), "count")
	m.set("storage.file_mb_end", float64(r.fileBytes)/(1<<20), "MiB")
	m.set("catalog.tables_leaked", float64(a.tables-b.tables), "count")

	// scheduler and the program's own tracing.
	m.set("sched.submitted_per_op", per(d(a.sched.Submitted, b.sched.Submitted), ops), "count")
	m.set("sched.stolen_per_op", per(d(a.sched.Stolen, b.sched.Stolen), ops), "count")
	m.set("sched.parallel_ratio", r.probes.parallelRatio, "ratio")
	m.set("obs.trace_on_overhead_pct", r.probes.traceOnOverheadPct, "%")

	// Go runtime over the untraced phase.
	m.set("go.gc_cycles", float64(a.proc.gcCycles-b.proc.gcCycles), "count")
	m.set("go.gc_pause_ms_total", ms(a.proc.gcPause-b.proc.gcPause), "ms")

	// The harness's own spans: each layer's self time as a share of op
	// time, what no span covers, and what tracing cost.
	self := map[string]time.Duration{}
	var opTotal time.Duration
	for _, tr := range r.tracers {
		s, t := selfTimes(tr.spans)
		for name, v := range s {
			self[name] += v
		}
		opTotal += t
	}
	share := func(name string) float64 { return 100 * per(float64(self[name]), float64(opTotal)) }
	m.set("span.dlog_parse_pct", share(spanParse), "%")
	m.set("span.core_compile_pct", share(spanCompile), "%")
	m.set("span.rtlib_evaluate_pct", share(spanEvaluate), "%")
	m.set("span.stored_update_pct", share(spanLoadRules)+share(spanUpdate), "%")
	m.set("span.client_roundtrip_pct", share(spanRoundTrip), "%")
	m.set("span.oracle_check_pct", share(spanCheck), "%")
	m.set("bench.unattributed_pct", share(spanOp), "%")
	// Where the traced phase replayed the untraced phase's first ops,
	// compare the same ops; elsewhere, further draws of the same mix.
	n := min(len(r.traced.query), len(u.query))
	m.set("bench.tracing_overhead_pct", 100*(per(float64(mean(r.traced.query[:n])), float64(mean(u.query[:n])))-1), "%")
}
