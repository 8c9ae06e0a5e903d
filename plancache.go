package dkbms

import (
	"fmt"
	"sync"

	"dkbms/internal/codegen"
	"dkbms/internal/core"
	"dkbms/internal/db"
	"dkbms/internal/matview"
	"dkbms/internal/snapshot"
)

// planCacheEntries bounds the shared plan cache of a ConcurrentTestbed.
// Each entry holds one compiled evaluation program and, while the tables
// it reads stand still, its memoized answer.
const planCacheEntries = 128

// planKey identifies a cacheable query by what changes its program or
// its answer: the source text, Naive and NoOptimize. opts carries only
// those two options, so runs that differ in the others (Trace, QueryID,
// the ignored Parallel) share one entry.
type planKey struct {
	src  string
	opts QueryOptions
}

// newPlanKey keys a request.
func newPlanKey(src string, opts *QueryOptions) planKey {
	return planKey{src: src, opts: QueryOptions{Naive: opts.Naive, NoOptimize: opts.NoOptimize}}
}

// planEntry is one cached compilation. The compiled program is valid
// while the rule-base generation matches (rule changes alter the
// generated program). The memoized result carries a per-table validity
// vector instead of a global data generation: the base tables the
// program reads, each with the version generation it was evaluated
// against. A result is served only to snapshots in which every
// dependency reports the recorded generation — so updates to unrelated
// tables never evict it. Entries form an LRU list under the cache
// mutex.
type planEntry struct {
	key      planKey
	compiled *core.Compiled
	ruleGen  uint64
	// deps are the base-table names the compiled program reads
	// (derived from Program.BasePreds once per program, at store time).
	deps []string
	// result is the memoized answer; resultVec maps each dependency to
	// the table-version generation the answer was computed against
	// (0 = table absent in that snapshot).
	result    *QueryResult
	resultVec map[string]uint64
	// view, when non-nil, owns the evaluation's derived relations so
	// commits can maintain result in place instead of dropping it; only
	// an entry whose inputs have moved (below) adopts one. maintained
	// marks a result refreshed by maintenance (served as Cache
	// "maintained" rather than "result").
	view       *matview.View
	maintained bool
	// moved is set when a commit moves a table the cached memo read.
	// Only then does a re-evaluation keep its derived relations as a
	// view: a memo whose inputs stand still never needs maintenance.
	moved bool

	prev, next *planEntry
}

// PlanCacheStats snapshots the shared plan cache's traffic counters.
type PlanCacheStats struct {
	// ResultHits counts queries answered entirely from the memoized
	// result (no compilation, no evaluation) — including answers kept
	// current by view maintenance.
	ResultHits int64
	// PlanHits counts queries that reused a compiled program but
	// re-evaluated it (a base table the program reads had moved).
	PlanHits int64
	// Misses counts full compilations.
	Misses int64
	// Invalidations counts entries dropped because a rule-base change
	// outdated their compiled program.
	Invalidations int64
	// Entries is the current cache population.
	Entries int64
}

// planCache is the server-wide compiled-plan and result cache behind
// ConcurrentTestbed.Query. It is safe for concurrent use; lookups and
// stores run from many pinned-snapshot readers at once, while
// Invalidate (view maintenance, condemned-table teardown) runs only
// from the single writer holding the commit mutex.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planKey]*planEntry
	head     *planEntry // most recently used
	tail     *planEntry // least recently used
	stats    PlanCacheStats

	// db is the live database view maintenance runs against.
	db *db.DB
	// mv aggregates maintenance telemetry across the cache's views.
	mv matview.Counters
	// condemned are views whose entries were replaced or evicted by
	// readers: readers must not drop tables (the writer may be
	// maintaining the view at that moment), so teardown is deferred to
	// the writer, which drains the list at the end of each Invalidate.
	condemned []*matview.View
}

func newPlanCache(d *db.DB) *planCache {
	return &planCache{
		capacity: planCacheEntries,
		entries:  make(map[planKey]*planEntry, planCacheEntries),
		db:       d,
	}
}

// depTables maps a compiled program to the base tables it reads, in
// first-appearance order without duplicates.
func depTables(compiled *core.Compiled) []string {
	seen := make(map[string]struct{}, len(compiled.Program.BasePreds))
	out := make([]string, 0, len(compiled.Program.BasePreds))
	for _, p := range compiled.Program.BasePreds {
		t := codegen.BaseTable(p)
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// assertDeps panics when a reused dependency list no longer covers the
// program's base predicates — the validity vector would silently stop
// guarding a table, serving stale answers forever.
func assertDeps(deps []string, compiled *core.Compiled) {
	set := make(map[string]struct{}, len(deps))
	for _, t := range deps {
		set[t] = struct{}{}
	}
	for _, p := range compiled.Program.BasePreds {
		if _, ok := set[codegen.BaseTable(p)]; !ok {
			panic(fmt.Sprintf("dkbms: plan-cache deps %v miss base predicate %s", deps, p))
		}
	}
}

// lookup returns the cached compilation for the key as seen from the
// given snapshot, with the outcome QueryResult.Cache reports: the
// memoized answer on a full result hit — every base table the program
// reads is at the generation the answer was computed against —
// reported "maintained" when view maintenance last refreshed it and
// "result" otherwise; a nil answer and "plan" when only the program is
// reusable; nothing and "miss" on a miss. keep reports whether a
// re-evaluation should keep its derived relations as a view (the
// entry's inputs have moved while it was cached). Hit counters are
// updated here; the miss counter is charged in store, so a lookup/store
// pair counts once.
func (pc *planCache) lookup(key planKey, snap *snapshot.Snapshot) (compiled *core.Compiled, memo *QueryResult, status string, keep bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	if !ok {
		return nil, nil, "miss", false
	}
	if e.ruleGen != snap.RuleGen {
		// The rule base moved: the compiled program is stale.
		pc.dropLocked(e)
		pc.stats.Invalidations++
		return nil, nil, "miss", false
	}
	pc.touch(e)
	if e.result != nil && vecCurrent(e.resultVec, snap) {
		pc.stats.ResultHits++
		if e.maintained {
			return e.compiled, e.result, "maintained", e.moved
		}
		return e.compiled, e.result, "result", e.moved
	}
	pc.stats.PlanHits++
	return e.compiled, nil, "plan", e.moved
}

// vecCurrent reports whether every dependency in the vector is at the
// recorded table-version generation in the snapshot. An absent table
// records generation 0, which stays valid exactly until the table
// appears (generations start at 1).
func vecCurrent(vec map[string]uint64, snap *snapshot.Snapshot) bool {
	for name, gen := range vec {
		if snap.TableGen(name) != gen {
			return false
		}
	}
	return true
}

// store records a compilation and its result as evaluated against the
// given snapshot, evicting the least recently used entry beyond
// capacity. A nil result stores the plan without touching any memoized
// answer or view (traced runs share plans with untraced queries but
// never publish their answers), and comes with a nil view. A non-nil
// view transfers ownership of the evaluation's derived relations;
// whatever view the entry held before is condemned for the writer to
// tear down.
//
// Racing stores for one key (readers pinned to different snapshots)
// need no ordering: a result stored with an older dependency vector
// simply fails validation for newer snapshots at lookup time.
func (pc *planCache) store(key planKey, snap *snapshot.Snapshot, compiled *core.Compiled, result *QueryResult, view *matview.View) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	var deps []string
	if ok && e.compiled == compiled {
		// Same program: the dependency set is a pure function of it, so
		// reuse the list instead of recomputing per store.
		deps = e.deps
		assertDeps(deps, compiled)
	} else {
		deps = depTables(compiled)
	}
	var vec map[string]uint64
	if result != nil {
		vec = make(map[string]uint64, len(deps))
		for _, name := range deps {
			vec[name] = snap.TableGen(name)
		}
	}
	if ok {
		// A concurrent reader (or this one, refreshing a stale result)
		// raced us here; keep the newest state.
		if e.compiled != compiled {
			pc.stats.Misses++
		}
		e.compiled, e.ruleGen, e.deps = compiled, snap.RuleGen, deps
		if result != nil {
			e.result, e.resultVec, e.maintained = result, vec, false
			pc.condemnLocked(e.view)
			e.view = view
		}
		pc.touch(e)
		return
	}
	pc.stats.Misses++
	e = &planEntry{key: key, compiled: compiled, ruleGen: snap.RuleGen, deps: deps,
		result: result, resultVec: vec, view: view}
	pc.entries[key] = e
	pc.pushFront(e)
	for len(pc.entries) > pc.capacity {
		pc.dropLocked(pc.tail)
	}
}

// dropLocked removes an entry, condemning its view. Caller holds mu.
func (pc *planCache) dropLocked(e *planEntry) {
	pc.unlink(e)
	delete(pc.entries, e.key)
	pc.condemnLocked(e.view)
	e.view = nil
}

// condemnLocked queues a replaced or evicted view for teardown by the
// writer. Caller holds mu.
func (pc *planCache) condemnLocked(v *matview.View) {
	if v != nil {
		pc.condemned = append(pc.condemned, v)
	}
}

// Invalidate reconciles the cache with one published commit. It runs on
// the single-writer commit path (caller holds the commit mutex), with
// prev the snapshot the commit superseded, next the one it published
// and ev the typed description of what the commit did — nil meaning an
// unknown mutation (failed commits publish conservatively), which
// drops stale memos like EventRuleGen does.
//
// Entries whose compiled program predates next's rule generation are
// dropped. Entries whose memo went stale with this commit are flagged
// as moved, so that their next evaluation keeps a view. Those that own
// a view already and went stale with exactly this commit (valid against
// prev, stale against next) are maintained in place when the event
// carries fact deltas below the cost crossover
// (matview.AutoIncremental); otherwise the memo is dropped and the plan
// kept. Maintenance runs view by view on the committing goroutine, after
// the cache mutex is released — concurrent readers keep hitting the
// plan — and each refreshed answer installs only if the entry still
// holds the same view (a racing reader may have replaced it). Condemned
// views' tables are torn down at the end: only here is it safe, because
// no maintenance can be running without commitMu.
func (pc *planCache) Invalidate(prev, next *snapshot.Snapshot, ev *matview.Event) {
	type job struct {
		e      *planEntry
		view   *matview.View
		result *QueryResult
	}
	var jobs []job
	commit := ev != nil && ev.Kind == matview.EventCommit
	pc.mu.Lock()
	for _, e := range pc.entries {
		if e.ruleGen != next.RuleGen {
			pc.dropLocked(e)
			pc.stats.Invalidations++
			continue
		}
		if e.result == nil || vecCurrent(e.resultVec, next) {
			continue // no memo, or untouched by this commit
		}
		e.moved = true
		// The memo went stale with this commit. Maintain it when the
		// commit is an exact fact delta, the entry owns a view, and the
		// delta is below the cost crossover; otherwise drop the memo,
		// keep the plan.
		ok := commit && e.view != nil && prev != nil && vecCurrent(e.resultVec, prev) &&
			matview.AutoIncremental(ev.RelevantSize(e.deps), len(e.result.Rows))
		if !ok {
			if e.view != nil {
				pc.mv.Rederives.Add(1)
				pc.condemnLocked(e.view)
				e.view = nil
			}
			e.result, e.resultVec, e.maintained = nil, nil, false
			continue
		}
		jobs = append(jobs, job{e, e.view, e.result})
	}
	pc.mu.Unlock()

	run := func(j job) {
		rows, err := j.view.Maintain(pc.db, ev)
		pc.mu.Lock()
		defer pc.mu.Unlock()
		if j.e.view != j.view {
			// A racing reader replaced the entry (fresh evaluation,
			// already-current answer) while we maintained: its state
			// wins, ours was condemned at replacement.
			return
		}
		if err != nil {
			pc.mv.Errors.Add(1)
			pc.condemnLocked(j.e.view)
			j.e.view = nil
			j.e.result, j.e.resultVec, j.e.maintained = nil, nil, false
			return
		}
		// Refresh onto a copy: the old result struct and row slice are
		// shared with readers that hit it earlier.
		nr := *j.result
		nr.Rows = rows
		vec := make(map[string]uint64, len(j.e.deps))
		for _, name := range j.e.deps {
			vec[name] = next.TableGen(name)
		}
		j.e.result, j.e.resultVec, j.e.maintained = &nr, vec, true
		pc.mv.Maintained.Add(1)
		pc.mv.DeltaTuples.Add(j.view.LastDeltaTuples())
		pc.mv.MaintainNs.Add(int64(j.view.LastDuration()))
	}
	for _, j := range jobs {
		run(j)
	}
	pc.drainCondemned()
}

// drainCondemned tears down replaced/evicted views' temp tables. Only
// the writer calls it (from Invalidate, under the commit mutex), so a
// condemned view is never mid-maintenance when its tables drop.
func (pc *planCache) drainCondemned() {
	pc.mu.Lock()
	doomed := pc.condemned
	pc.condemned = nil
	pc.mu.Unlock()
	for _, v := range doomed {
		if err := v.Drop(pc.db); err != nil {
			pc.mv.Errors.Add(1)
		}
	}
}

// views lists the maintained views, most recently used first.
func (pc *planCache) views() []MaterializedView {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var out []MaterializedView
	for e := pc.head; e != nil; e = e.next {
		if e.view == nil {
			continue
		}
		out = append(out, MaterializedView{
			Query:           e.key.src,
			Rows:            len(e.result.Rows),
			Maintains:       e.view.Maintains(),
			LastDeltaTuples: e.view.LastDeltaTuples(),
			LastDuration:    e.view.LastDuration(),
		})
	}
	return out
}

// mvStats snapshots the maintenance counters plus the live-view gauge.
func (pc *planCache) mvStats() matview.Stats {
	st := pc.mv.Snapshot()
	pc.mu.Lock()
	for e := pc.head; e != nil; e = e.next {
		if e.view != nil {
			st.Live++
		}
	}
	pc.mu.Unlock()
	return st
}

// snapshot returns the counters plus current population.
func (pc *planCache) snapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := pc.stats
	out.Entries = int64(len(pc.entries))
	return out
}

// --- LRU list maintenance (caller holds mu) ---

func (pc *planCache) pushFront(e *planEntry) {
	e.prev = nil
	e.next = pc.head
	if pc.head != nil {
		pc.head.prev = e
	}
	pc.head = e
	if pc.tail == nil {
		pc.tail = e
	}
}

func (pc *planCache) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (pc *planCache) touch(e *planEntry) {
	pc.unlink(e)
	pc.pushFront(e)
}
