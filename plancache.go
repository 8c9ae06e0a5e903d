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
// tables never evict it. Beside the vector the memo keeps its read set
// (readSet): which dependencies its evaluation read only through
// full-key index probes, and which keys. A commit that moves such a
// dependency without writing a probed key leaves the answer as it was,
// and Invalidate carries the memo forward to the new versions. Entries
// form an LRU list under the cache mutex.
type planEntry struct {
	key      planKey
	compiled *core.Compiled
	ruleGen  uint64
	// deps are the base-table names the compiled program reads
	// (derived from Program.BasePreds once per program, at store time).
	deps []string
	// result is the memoized answer (its res nil when there is none);
	// resultVec pairs each dependency with the table-version generation
	// the answer stands at (0 = table absent in that snapshot): the one
	// it was computed against, or the one a commit carried it to.
	// resultGen is the snapshot generation it stands at, the same way,
	// and reads its read set.
	result    memo
	resultVec []depGen
	resultGen uint64
	reads     readSet

	prev, next *planEntry
}

// depGen is a table a memo depends on and the generation of the
// table's version the memo stands at.
type depGen struct {
	table string
	gen   uint64
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
	// Carried counts memos a commit left standing although it moved a
	// table they read: it wrote none of the keys they probed.
	Carried int64
	// ReadSetBytes is the memos' read sets' size: their Bloom filters'
	// words and their lists of probed indexes together (readSet.bytes).
	ReadSetBytes int64
}

// planCache is the server-wide compiled-plan and result cache behind
// ConcurrentTestbed.Query. It is safe for concurrent use; lookups and
// stores run from many pinned-snapshot readers at once, while
// Invalidate runs only from the single writer holding the commit mutex.
// An entry holds records, never tables: a memo a commit moved is
// carried forward when the commit wrote nothing it read, and dropped
// otherwise, the next read re-evaluating, as the paper re-derives after
// every update.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[planKey]*planEntry
	head     *planEntry // most recently used
	tail     *planEntry // least recently used
	stats    PlanCacheStats
	// resultBytes and readSetBytes are PlanCacheStats.ResultBytes and
	// ReadSetBytes, kept by setResult.
	resultBytes, readSetBytes int64
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
func vecCurrent(vec []depGen, snap *snapshot.Snapshot) bool {
	for _, d := range vec {
		if snap.TableGen(d.table) != d.gen {
			return false
		}
	}
	return true
}

// store records a compilation and its result, with the result's read
// set, as evaluated against the given snapshot, evicting the least
// recently used entry beyond capacity. A result without res stores the
// plan without touching any memoized answer (traced runs share plans
// with untraced queries but never publish their answers).
//
// Racing stores for one key come from readers pinned to different
// snapshots, and the newest state wins: a reader of an older snapshot
// than the entry's memo (stored, or carried forward by a commit) or
// than its program's rule generation leaves the entry as it is, so
// readers of the current snapshot keep hitting it.
func (pc *planCache) store(key planKey, snap *snapshot.Snapshot, compiled *core.Compiled, result memo, reads readSet) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	if ok && (e.ruleGen > snap.RuleGen || e.result.res != nil && e.resultGen > snap.Gen) {
		pc.touch(e)
		return
	}
	var deps []string
	if ok && e.compiled == compiled {
		// Same program: the dependency set is a pure function of it, so
		// reuse the list instead of recomputing per store.
		deps = e.deps
		assertDeps(deps, compiled)
	} else {
		deps = depTables(compiled)
	}
	var vec []depGen
	if result.res != nil {
		vec = make([]depGen, len(deps))
		for i, name := range deps {
			vec[i] = depGen{name, snap.TableGen(name)}
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
			pc.setResult(e, result, vec, snap.Gen, reads)
		}
		pc.touch(e)
		return
	}
	pc.stats.Misses++
	e = &planEntry{key: key, compiled: compiled, ruleGen: snap.RuleGen, deps: deps}
	pc.setResult(e, result, vec, snap.Gen, reads)
	pc.entries[key] = e
	pc.pushFront(e)
	for len(pc.entries) > pc.capacity {
		pc.dropLocked(pc.tail)
	}
}

// dropLocked removes an entry. Caller holds mu.
func (pc *planCache) dropLocked(e *planEntry) {
	pc.setResult(e, memo{}, nil, 0, readSet{})
	pc.unlink(e)
	delete(pc.entries, e.key)
}

// setResult replaces an entry's memo (an empty one drops it) with the
// memo's vector, generation and read set, keeping the account of memo
// and read-set bytes. Caller holds mu.
func (pc *planCache) setResult(e *planEntry, result memo, vec []depGen, gen uint64, reads readSet) {
	pc.resultBytes += int64(len(result.block) - len(e.result.block))
	pc.readSetBytes += reads.bytes() - e.reads.bytes()
	e.result, e.resultVec, e.resultGen, e.reads = result, vec, gen, reads
}

// Invalidate reconciles the cache with one published snapshot. It runs
// on the single-writer commit path (caller holds the commit mutex), with
// next the snapshot the commit published and prev the one it replaced
// (nil for the first). Entries whose compiled program predates next's
// rule generation are dropped. A memo that is stale against next is
// carried forward — its vector and generation re-stamped at next —
// when it stood at prev and its read set shows the commit wrote nothing
// it read (readSet.unwritten); any other stale memo is dropped and its
// plan kept, so the next read re-evaluates the program (outcome
// "plan").
func (pc *planCache) Invalidate(prev, next *snapshot.Snapshot) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range pc.entries {
		if e.ruleGen != next.RuleGen {
			pc.dropLocked(e)
			pc.stats.Invalidations++
			continue
		}
		if e.result.res == nil || vecCurrent(e.resultVec, next) {
			continue
		}
		if prev != nil && vecCurrent(e.resultVec, prev) && e.reads.unwritten(e.resultVec, next) {
			for i, d := range e.resultVec {
				e.resultVec[i].gen = next.TableGen(d.table)
			}
			e.resultGen = next.Gen
			pc.stats.Carried++
			continue
		}
		pc.setResult(e, memo{}, nil, 0, readSet{})
	}
}

// snapshot returns the counters plus current population.
func (pc *planCache) snapshot() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := pc.stats
	out.Entries, out.ResultBytes, out.ReadSetBytes = int64(len(pc.entries)), pc.resultBytes, pc.readSetBytes
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
