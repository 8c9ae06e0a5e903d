// Package snapshot is the engine's MVCC-lite read path: immutable,
// generation-stamped snapshots of the base-table state, published
// through an atomic pointer and reclaimed by reference counting.
//
// The design replaces the reader/writer lock the ConcurrentTestbed
// originally used (readers convoyed behind every LOAD/RETRACT; see
// scripts/bench_baseline/BENCH_server_scaling.json) with copy-on-write
// at table granularity:
//
//   - A Snapshot is a frozen view: the rule generation that keys the
//     plan cache's compiled programs (RuleGen), the workspace rule set
//     at commit time, and a per-table version vector mapping base-table
//     names to immutable *catalog.Table versions, against which memoized
//     answers are validated.
//   - Readers pin the current snapshot with Store.Acquire — an atomic
//     pointer load plus a pin-count increment, never a lock shared with
//     writers — evaluate entirely against it, and Release it when done.
//   - The single-writer commit path clones only the tables an update
//     touches (catalog.Catalog.ShadowTable), applies the update to the
//     clones, and installs the successor snapshot with Store.Publish.
//     Unchanged tables carry their Version into the new snapshot; a
//     replaced Version is marked superseded.
//   - Reclamation is epoch-like: each Version counts the snapshots that
//     reference it, and a superseded Version frees its heap pages (back
//     to the pager free list) when the last referencing snapshot drains
//     to zero reader pins. A pinned snapshot therefore keeps every
//     table version it can see readable, no matter how many commits
//     have happened since.
package snapshot

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
)

// Version is one immutable published version of a base table. The
// wrapped *catalog.Table is frozen: the writer never mutates a table
// after a newer version replaces it in the live catalog, so readers may
// scan its heap and probe its indexes without coordination.
type Version struct {
	// Table is the frozen physical table.
	Table *catalog.Table
	// Gen is the snapshot generation that first published this version;
	// the plan cache's per-table dependency vectors compare against it.
	Gen uint64

	// refs counts the snapshots (not readers) referencing this version.
	refs atomic.Int64
	// superseded is set by Publish when a newer version replaces this
	// one; only superseded versions own their heap pages and may free
	// them on the last unref.
	superseded atomic.Bool
	store      *Store
}

// unref drops one snapshot reference; the last reference of a
// superseded version returns its heap pages to the pager free list.
func (v *Version) unref() {
	if v.refs.Add(-1) == 0 && v.superseded.Load() {
		v.reclaim()
	}
}

func (v *Version) reclaim() {
	st := v.store
	st.liveVersions.Add(-1)
	st.backlog.Add(-1)
	if err := v.Table.Heap.Drop(); err != nil {
		st.reclaimErrors.Add(1)
		return
	}
	st.reclaimed.Add(1)
}

// Snapshot is one immutable published engine state. All exported fields
// and maps are frozen at Publish time; a Snapshot is safe for
// concurrent use by any number of readers holding pins on it.
type Snapshot struct {
	// Gen is the commit sequence number: it increases by one per
	// Publish and stamps every table version created by that commit.
	Gen uint64
	// RuleGen is the rule-base generation at commit time: it keys
	// compiled programs (result validity uses the per-table vector).
	RuleGen uint64

	ws       *core.Workspace
	versions map[string]*Version
	names    []string // sorted version-map keys, for deterministic iteration

	// pins starts at 1 — the store's "currentness" reference — and
	// counts readers on top. Publish drops the currentness pin when the
	// snapshot is superseded; whoever takes pins to zero finalizes.
	pins  atomic.Int64
	done  atomic.Bool
	store *Store
}

// WS returns the frozen workspace rule set of this snapshot.
func (s *Snapshot) WS() *core.Workspace { return s.ws }

// ResolveTable resolves a base-table name against the frozen version
// vector. It reports (table, true) for names the snapshot is
// authoritative for — every versioned table, plus any name under the
// store's managed prefix, for which absence is authoritative too (a
// fact relation created after this snapshot must stay invisible to
// it). Other names (the run-time library's session-private temp
// tables) report (nil, false) and fall through to the live catalog.
func (s *Snapshot) ResolveTable(name string) (*catalog.Table, bool) {
	if v, ok := s.versions[name]; ok {
		return v.Table, true
	}
	if strings.HasPrefix(name, s.store.prefix) {
		return nil, true
	}
	return nil, false
}

// TableGen returns the generation of the named table's version, or 0
// when the snapshot has no such table. Since generations start at 1,
// (name → TableGen) pairs form an exact validity vector: a memoized
// result is current while every dependency reports the recorded value.
func (s *Snapshot) TableGen(name string) uint64 {
	if v, ok := s.versions[name]; ok {
		return v.Gen
	}
	return 0
}

// Tables returns the versioned table names in sorted order.
func (s *Snapshot) Tables() []string { return s.names }

// Version returns the named table's version, or nil.
func (s *Snapshot) Version(name string) *Version { return s.versions[name] }

// Release drops a reader's pin. The last pin of a superseded snapshot
// releases its version references, which reclaims any table version no
// other snapshot can see.
func (s *Snapshot) Release() {
	s.unpin()
	// Decremented after finalization so that Store.Shutdown observing
	// zero readers implies all reclamation this reader triggered is
	// complete.
	s.store.readers.Add(-1)
}

func (s *Snapshot) unpin() {
	if s.pins.Add(-1) == 0 {
		s.finalize()
	}
}

// finalize runs once, when a superseded snapshot's pins drain to zero:
// it releases the version references and then unregisters from the
// retired set. The done flag guards the 0→1→0 pin transient of
// Acquire's recheck loop, which can reach zero a second time.
func (s *Snapshot) finalize() {
	if !s.done.CompareAndSwap(false, true) {
		return
	}
	for _, v := range s.versions {
		v.unref()
	}
	s.store.noteDrained(s)
}

// Store publishes snapshots. The read path (Acquire/Release) is
// lock-free; Publish is called by at most one writer at a time (the
// engine's commit mutex provides that).
type Store struct {
	// current is the published snapshot. Readers load it and pin;
	// Publish swaps it. This pointer is the only rendezvous between
	// readers and the writer.
	current atomic.Pointer[Snapshot]
	prefix  string

	// readers counts queries currently holding a pinned snapshot.
	readers atomic.Int64

	mu      sync.Mutex
	retired map[*Snapshot]struct{} // superseded snapshots not yet drained

	liveVersions  atomic.Int64
	backlog       atomic.Int64 // superseded versions awaiting reclamation
	reclaimed     atomic.Int64
	reclaimErrors atomic.Int64
	commits       atomic.Int64
	copied        atomic.Int64 // table versions replaced across all commits
	stallNs       atomic.Int64 // cumulative writer time spent building copies
}

// NewStore returns an empty store. managedPrefix is the base-table
// naming prefix ("edb_") for which snapshots are authoritative even in
// absence. Publish must run once before the first Acquire.
func NewStore(managedPrefix string) *Store {
	return &Store{prefix: managedPrefix, retired: make(map[*Snapshot]struct{})}
}

// Acquire pins and returns the current snapshot. The recheck loop
// closes the load/pin race with a concurrent Publish: a pin landing on
// a just-superseded snapshot is withdrawn and the load retried, so the
// returned snapshot was current at the instant its pin was visible —
// and its pin keeps every table version it references alive.
func (st *Store) Acquire() *Snapshot {
	for {
		s := st.current.Load()
		s.pins.Add(1)
		if st.current.Load() == s {
			st.readers.Add(1)
			return s
		}
		s.unpin()
	}
}

// Current returns the published snapshot without pinning it. The
// returned snapshot's immutable fields (generations, names) are safe
// to read, but its table versions may be reclaimed at any time — use
// Acquire to evaluate against it.
func (st *Store) Current() *Snapshot { return st.current.Load() }

// Publish installs the successor snapshot built from the given live
// tables (name → current physical table, as the commit left them) and
// rule generation. Tables whose physical identity is unchanged carry their
// version forward; replaced or dropped versions are marked superseded
// and reclaimed once their referencing snapshots drain. buildCost is
// the writer time spent preparing the commit (table copies), surfaced
// as the writer-stall telemetry. Single writer only.
func (st *Store) Publish(tables map[string]*catalog.Table, ruleGen uint64, ws *core.Workspace, buildCost time.Duration) *Snapshot {
	prev := st.current.Load()
	gen := uint64(1)
	if prev != nil {
		gen = prev.Gen + 1
	}
	next := &Snapshot{
		Gen:      gen,
		RuleGen:  ruleGen,
		ws:       ws,
		versions: make(map[string]*Version, len(tables)),
		store:    st,
	}
	next.pins.Store(1)
	for name, t := range tables {
		if prev != nil {
			if v, ok := prev.versions[name]; ok && v.Table == t {
				v.refs.Add(1)
				next.versions[name] = v
				continue
			}
			if _, replaced := prev.versions[name]; replaced {
				st.copied.Add(1)
			}
		}
		v := &Version{Table: t, Gen: gen, store: st}
		v.refs.Store(1)
		next.versions[name] = v
		st.liveVersions.Add(1)
	}
	next.names = make([]string, 0, len(next.versions))
	for name := range next.versions {
		next.names = append(next.names, name)
	}
	sort.Strings(next.names)

	if prev != nil {
		for name, v := range prev.versions {
			if next.versions[name] != v {
				v.superseded.Store(true)
				st.backlog.Add(1)
			}
		}
		// Register prev as retired before the swap: a racing reader that
		// takes prev's pins to zero right after the swap must find it in
		// the set to unregister.
		st.mu.Lock()
		st.retired[prev] = struct{}{}
		st.mu.Unlock()
	}
	st.current.Store(next)
	st.commits.Add(1)
	st.stallNs.Add(int64(buildCost))
	if prev != nil {
		prev.unpin() // drop the currentness pin; last reader out finalizes
	}
	return next
}

func (st *Store) noteDrained(s *Snapshot) {
	st.mu.Lock()
	delete(st.retired, s)
	st.mu.Unlock()
}

// ActiveReaders returns the number of queries holding a pinned
// snapshot right now.
func (st *Store) ActiveReaders() int64 { return st.readers.Load() }

// Shutdown blocks until every reader has released its snapshot and all
// pending reclamation has run. The caller must have stopped admitting
// new readers first; Publish must not run concurrently.
func (st *Store) Shutdown() {
	for {
		st.mu.Lock()
		n := len(st.retired)
		st.mu.Unlock()
		if n == 0 && st.readers.Load() == 0 {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Stats is a point-in-time snapshot of the store's telemetry.
type Stats struct {
	// Gen and RuleGen identify the published snapshot.
	Gen     uint64
	RuleGen uint64
	// OldestPinnedGen is the generation of the oldest snapshot still
	// held by a reader (== Gen when no retired snapshot survives).
	OldestPinnedGen uint64
	// ActiveReaders counts queries holding a pinned snapshot.
	ActiveReaders int64
	// RetiredSnapshots counts superseded snapshots awaiting drain.
	RetiredSnapshots int64
	// LiveVersions counts table versions not yet reclaimed (including
	// the current ones); ReclaimBacklog counts the superseded subset.
	LiveVersions   int64
	ReclaimBacklog int64
	// ReclaimedTables and ReclaimErrors count completed and failed
	// version reclamations since the store opened.
	ReclaimedTables int64
	ReclaimErrors   int64
	// Commits counts Publish calls; CopiedTables counts table versions
	// replaced across them (the copy-on-write write amplification).
	Commits      int64
	CopiedTables int64
	// WriterStall is the cumulative writer time spent building table
	// copies before publishing.
	WriterStall time.Duration
}

// Stats returns current telemetry.
func (st *Store) Stats() Stats {
	out := Stats{
		ActiveReaders:   st.readers.Load(),
		LiveVersions:    st.liveVersions.Load(),
		ReclaimBacklog:  st.backlog.Load(),
		ReclaimedTables: st.reclaimed.Load(),
		ReclaimErrors:   st.reclaimErrors.Load(),
		Commits:         st.commits.Load(),
		CopiedTables:    st.copied.Load(),
		WriterStall:     time.Duration(st.stallNs.Load()),
	}
	if cur := st.current.Load(); cur != nil {
		out.Gen, out.RuleGen = cur.Gen, cur.RuleGen
		out.OldestPinnedGen = cur.Gen
	}
	st.mu.Lock()
	out.RetiredSnapshots = int64(len(st.retired))
	for s := range st.retired {
		if s.Gen < out.OldestPinnedGen {
			out.OldestPinnedGen = s.Gen
		}
	}
	st.mu.Unlock()
	return out
}
