// Package snapshot is the engine's MVCC-lite read path: immutable,
// generation-stamped snapshots of the base-table state, published
// through an atomic pointer and reclaimed in commit order.
//
//   - A Snapshot is a frozen view: the rule generation that keys the
//     plan cache's compiled programs (RuleGen), the workspace rule set
//     at commit time, and the map from base-table name to the frozen
//     *catalog.Table version that catalog.Catalog.Freeze returned. Each
//     version carries the generation that first published it
//     (catalog.Table.Gen), against which memoized answers are validated.
//   - A query reads a snapshot through a view of the database bound to
//     its table map (db.DB.View), by the view rule: a stored table
//     resolves in the map, where absent means absent — a table created
//     after the snapshot stays invisible, whatever its name — and a temp
//     table, which no snapshot holds, resolves in the live catalog.
//   - Readers pin the current snapshot with Store.Acquire — an atomic
//     pointer load plus a pin-count increment, never a lock shared with
//     writers — evaluate entirely against it, and Release it when done.
//   - The single-writer commit path calls Store.Publish, which freezes
//     the catalog's stored tables and installs them as the successor
//     snapshot. The catalog replaces a frozen version on its first write
//     after that (Catalog.Writable) by a version that shares its pages
//     and index nodes and copies those it writes.
//   - Reclamation follows one rule, LMDB's: a version that commit g
//     dropped or replaced is unreachable once every snapshot older than
//     g has drained. Publish records those versions, each with its
//     successor, on the snapshot it retires, and queues that snapshot.
//     A drained snapshot is only marked; whoever drains the oldest
//     queued one pops every drained snapshot at the head of the queue
//     and frees, for each version they carry, the heap pages it names
//     and its successor does not (back to the pager free list). An
//     older version may share those pages, hence the order. A pinned
//     snapshot therefore keeps every table version it can see readable,
//     no matter how many commits have happened since.
//   - The pages a retired version wrote itself no older version names:
//     they are freed as soon as every snapshot that publishes the
//     version has drained, ahead of the queue (Store.ownDrained). So a
//     long reader holds the pages its own versions name, not every copy
//     the commits after it made and replaced.
package snapshot

import (
	"sync"
	"sync/atomic"
	"time"

	"dkbms/internal/catalog"
	"dkbms/internal/core"
	"dkbms/internal/storage"
)

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

	ws     *core.Workspace
	tables map[string]*catalog.Table

	// pins starts at 1 — the store's "currentness" reference — and
	// counts readers on top. Publish drops the currentness pin when the
	// snapshot is superseded; whoever takes pins to zero finalizes.
	pins  atomic.Int64
	store *Store

	// retire holds the versions the successor snapshot dropped or
	// replaced, written by the Publish that queues this snapshot.
	retire []superseded
	// drained is set, under store.mu, once the pins of this retired
	// snapshot reach zero.
	drained bool
}

// superseded is a table version a commit dropped or replaced, and the
// version that replaced it (nil when the commit dropped it). own is set,
// under Store.mu, once the pages the version wrote itself are freed
// (Snapshot.finalize).
type superseded struct {
	version, successor *catalog.Table
	own                bool
}

// WS returns the frozen workspace rule set of this snapshot.
func (s *Snapshot) WS() *core.Workspace { return s.ws }

// TableGen returns the generation of the named table's version, or 0
// when the snapshot has no such table. Since generations start at 1,
// (name → TableGen) pairs form an exact validity vector: a memoized
// result is current while every dependency reports the recorded value.
func (s *Snapshot) TableGen(name string) uint64 {
	if t, ok := s.tables[name]; ok {
		return t.Gen()
	}
	return 0
}

// Tables returns the frozen table map: every stored table's version, by
// name. A view of the database reads it (db.DB.View); no one may modify
// it.
func (s *Snapshot) Tables() map[string]*catalog.Table { return s.tables }

// Table returns the named table's frozen version, or nil.
func (s *Snapshot) Table(name string) *catalog.Table { return s.tables[name] }

// Release drops a reader's pin. The last pin of a retired snapshot
// marks it drained, which reclaims the versions of every drained
// snapshot at the head of the queue.
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

// finalize runs when the pins of a retired snapshot reach zero: it marks
// the snapshot drained, pops every drained snapshot at the head of the
// queue, and picks the versions further back whose own pages no reader
// can reach any more (ownDrained); then it reclaims the popped
// snapshots' versions, and frees the picked versions' own pages, outside
// mu. The drained flag also guards the 0→1→0 pin transient of Acquire's
// recheck loop, which can reach zero a second time.
func (s *Snapshot) finalize() {
	st := s.store
	st.mu.Lock()
	if s.drained {
		st.mu.Unlock()
		return
	}
	s.drained = true
	var done []*Snapshot
	for len(st.queue) > 0 && st.queue[0].drained {
		done = append(done, st.queue[0])
		st.queue[0] = nil
		st.queue = st.queue[1:]
	}
	own := st.ownDrained()
	st.mu.Unlock()
	for _, head := range done {
		for _, v := range head.retire {
			st.reclaim(v)
		}
	}
	for _, v := range own {
		st.release(v.version.Heap.ReleaseOwn, v.successor)
	}
}

// ownDrained marks and returns the superseded versions in the queue
// whose own pages — those the version wrote itself, which no older
// version names — no reader can reach any more: every snapshot that
// publishes the version, from the one of its generation to the one that
// retired it, has drained, though an older one may still be held. A
// long reader then keeps only the pages its own versions name, not
// every page the commits after it wrote and replaced. Caller holds mu;
// the queue holds consecutive generations, its head the oldest not
// reclaimed.
func (st *Store) ownDrained() []superseded {
	var out []superseded
	for i, q := range st.queue {
		for k := range q.retire {
			v := &q.retire[k]
			if v.own {
				continue
			}
			from := max(int(v.version.Gen())-int(st.queue[0].Gen), 0)
			drained := true
			for _, r := range st.queue[from : i+1] {
				drained = drained && r.drained
			}
			if drained {
				v.own = true
				out = append(out, *v)
			}
		}
	}
	return out
}

// reclaim frees the heap pages v.version names and its successor does
// not — those it shares with older versions when its own ones are freed
// already.
func (st *Store) reclaim(v superseded) {
	st.liveVersions.Add(-1)
	st.backlog.Add(-1)
	free := v.version.Heap.Release
	if v.own {
		free = v.version.Heap.ReleaseShared
	}
	if st.release(free, v.successor) {
		st.reclaimed.Add(1)
	}
}

// release calls free with the heap of successor, nil when there is
// none, counting an error; it reports success.
func (st *Store) release(free func(next *storage.HeapFile) error, successor *catalog.Table) bool {
	var succ *storage.HeapFile
	if successor != nil {
		succ = successor.Heap
	}
	if err := free(succ); err != nil {
		st.reclaimErrors.Add(1)
		return false
	}
	return true
}

// Store publishes snapshots. The read path (Acquire/Release) is
// lock-free; Publish is called by at most one writer at a time (the
// engine's commit mutex provides that).
type Store struct {
	// current is the published snapshot. Readers load it and pin;
	// Publish swaps it. This pointer is the only rendezvous between
	// readers and the writer.
	current atomic.Pointer[Snapshot]

	// readers counts queries currently holding a pinned snapshot.
	readers atomic.Int64

	mu    sync.Mutex
	queue []*Snapshot // retired snapshots not yet reclaimed, oldest first

	liveVersions  atomic.Int64
	backlog       atomic.Int64 // superseded versions awaiting reclamation
	reclaimed     atomic.Int64
	reclaimErrors atomic.Int64
	commits       atomic.Int64
	copied        atomic.Int64 // table versions replaced across all commits
	pages         atomic.Int64 // heap pages the commits wrote
	nodes         atomic.Int64 // index nodes the commits wrote
	stallNs       atomic.Int64 // cumulative writer time spent making versions writable
}

// NewStore returns an empty store. Publish must run once before the
// first Acquire.
func NewStore() *Store { return new(Store) }

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

// Publish freezes the catalog's stored tables, stamping the versions
// first published now with the new generation (catalog.Catalog.Freeze),
// and installs them as the successor snapshot with the rule generation
// and workspace. The versions it drops or replaces are recorded on the
// retired snapshot and reclaimed once every snapshot up to it has
// drained. cost is what the commit's writes cost the catalog
// (catalog.Catalog.Moved): its time is the writer-stall telemetry.
// Single writer only.
func (st *Store) Publish(cat *catalog.Catalog, ruleGen uint64, ws *core.Workspace, cost catalog.Copies) *Snapshot {
	prev := st.current.Load()
	gen := uint64(1)
	if prev != nil {
		gen = prev.Gen + 1
	}
	next := &Snapshot{Gen: gen, RuleGen: ruleGen, ws: ws, tables: cat.Freeze(gen), store: st}
	next.pins.Store(1)
	for _, t := range next.tables {
		if t.Gen() == gen {
			st.liveVersions.Add(1)
		}
	}

	if prev != nil {
		for name, t := range prev.tables {
			if nt := next.tables[name]; nt != t {
				prev.retire = append(prev.retire, superseded{version: t, successor: nt})
				if nt != nil {
					st.copied.Add(1)
				}
			}
		}
		st.backlog.Add(int64(len(prev.retire)))
		// Queue prev before the swap: a racing reader that takes prev's
		// pins to zero right after the swap must find it queued.
		st.mu.Lock()
		st.queue = append(st.queue, prev)
		st.mu.Unlock()
	}
	st.current.Store(next)
	st.commits.Add(1)
	st.pages.Add(cost.Pages)
	st.nodes.Add(cost.Nodes)
	st.stallNs.Add(int64(cost.Time))
	if prev != nil {
		prev.unpin() // drop the currentness pin; last reader out drains
	}
	return next
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
		n := len(st.queue)
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
	// held by a reader: the head of the queue, or Gen when it is empty.
	OldestPinnedGen uint64
	// ActiveReaders counts queries holding a pinned snapshot.
	ActiveReaders int64
	// RetiredSnapshots counts retired snapshots not yet reclaimed.
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
	// replaced across them; PagesWritten and NodesWritten count the heap
	// pages and index nodes the replacing versions and the created
	// tables wrote: copies of pages and nodes an older version shares,
	// and added ones (the copy-on-write write amplification).
	Commits      int64
	CopiedTables int64
	PagesWritten int64
	NodesWritten int64
	// WriterStall is the cumulative writer time spent making frozen
	// table versions writable before publishing.
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
		PagesWritten:    st.pages.Load(),
		NodesWritten:    st.nodes.Load(),
		WriterStall:     time.Duration(st.stallNs.Load()),
	}
	if cur := st.current.Load(); cur != nil {
		out.Gen, out.RuleGen = cur.Gen, cur.RuleGen
		out.OldestPinnedGen = cur.Gen
	}
	st.mu.Lock()
	out.RetiredSnapshots = int64(len(st.queue))
	if len(st.queue) > 0 {
		out.OldestPinnedGen = st.queue[0].Gen
	}
	st.mu.Unlock()
	return out
}
