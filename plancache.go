package dkbms

import (
	"fmt"
	"sync"

	"dkbms/internal/codegen"
	"dkbms/internal/core"
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
	// result is the memoized answer (its res nil when there is none);
	// resultVec maps each dependency to the table-version generation the
	// answer was computed against (0 = table absent in that snapshot).
	result    memo
	resultVec map[string]uint64

	prev, next *planEntry
}

// memo is an answer as the plan cache keeps it: the evaluation's
// result, its Rows nil, and the answer as one row block in
// rel.AppendRows's layout — the form a RESULT frame carries, and
// nothing else.
type memo struct {
	res   *QueryResult
	block []byte
}

// PlanCacheStats snapshots the shared plan cache's traffic counters.
type PlanCacheStats struct {
	// ResultHits counts queries answered entirely from the memoized
	// result (no compilation, no evaluation).
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
	// ResultBytes is the memoized answers' size: the length of their row
	// blocks together.
	ResultBytes int64
}

// planCache is the server-wide compiled-plan and result cache behind
// ConcurrentTestbed.Query. It is safe for concurrent use; lookups and
// stores run from many pinned-snapshot readers at once, while
// Invalidate runs only from the single writer holding the commit mutex.
// An entry holds records, never tables: a memo that goes stale is
// dropped, and the next read re-evaluates, as the paper re-derives
// after every update.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planKey]*planEntry
	head     *planEntry // most recently used
	tail     *planEntry // least recently used
	stats    PlanCacheStats
	// resultBytes is PlanCacheStats.ResultBytes, kept by setResult.
	resultBytes int64
}

func newPlanCache() *planCache {
	return &planCache{
		capacity: planCacheEntries,
		entries:  make(map[planKey]*planEntry, planCacheEntries),
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
// memoized answer and "result" on a full result hit — every base table
// the program reads is at the generation the answer was computed
// against; no memo and "plan" when only the program is reusable;
// nothing and "miss" on a miss. Hit counters are updated here; the miss
// counter is charged in store, so a lookup/store pair counts once.
func (pc *planCache) lookup(key planKey, snap *snapshot.Snapshot) (compiled *core.Compiled, m memo, status string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	if !ok {
		return nil, memo{}, "miss"
	}
	if e.ruleGen != snap.RuleGen {
		// The rule base moved: the compiled program is stale.
		pc.dropLocked(e)
		pc.stats.Invalidations++
		return nil, memo{}, "miss"
	}
	pc.touch(e)
	if e.result.res != nil && vecCurrent(e.resultVec, snap) {
		pc.stats.ResultHits++
		return e.compiled, e.result, "result"
	}
	pc.stats.PlanHits++
	return e.compiled, memo{}, "plan"
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
// capacity. A result without res stores the plan without touching any
// memoized answer (traced runs share plans with untraced queries but
// never publish their answers).
//
// Racing stores for one key (readers pinned to different snapshots)
// need no ordering: a result stored with an older dependency vector
// simply fails validation for newer snapshots at lookup time.
func (pc *planCache) store(key planKey, snap *snapshot.Snapshot, compiled *core.Compiled, result memo) {
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
	if result.res != nil {
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
		if result.res != nil {
			pc.setResult(e, result, vec)
		}
		pc.touch(e)
		return
	}
	pc.stats.Misses++
	e = &planEntry{key: key, compiled: compiled, ruleGen: snap.RuleGen, deps: deps}
	pc.setResult(e, result, vec)
	pc.entries[key] = e
	pc.pushFront(e)
	for len(pc.entries) > pc.capacity {
		pc.dropLocked(pc.tail)
	}
}

// dropLocked removes an entry. Caller holds mu.
func (pc *planCache) dropLocked(e *planEntry) {
	pc.setResult(e, memo{}, nil)
	pc.unlink(e)
	delete(pc.entries, e.key)
}

// setResult replaces an entry's memo (an empty one drops it), keeping
// the memo bytes' account. Caller holds mu.
func (pc *planCache) setResult(e *planEntry, result memo, vec map[string]uint64) {
	pc.resultBytes += int64(len(result.block) - len(e.result.block))
	e.result, e.resultVec = result, vec
}

// Invalidate reconciles the cache with one published snapshot. It runs
// on the single-writer commit path (caller holds the commit mutex), with
// next the snapshot the commit published. Entries whose compiled program
// predates next's rule generation are dropped; a memo that is stale
// against next is dropped and its plan kept, so the next read
// re-evaluates the program (outcome "plan").
func (pc *planCache) Invalidate(next *snapshot.Snapshot) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range pc.entries {
		if e.ruleGen != next.RuleGen {
			pc.dropLocked(e)
			pc.stats.Invalidations++
			continue
		}
		if e.result.res != nil && !vecCurrent(e.resultVec, next) {
			pc.setResult(e, memo{}, nil)
		}
	}
}

// snapshot returns the counters plus current population.
func (pc *planCache) snapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := pc.stats
	out.Entries, out.ResultBytes = int64(len(pc.entries)), pc.resultBytes
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
