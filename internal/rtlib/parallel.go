package rtlib

import (
	"fmt"
	"time"

	"dkbms/internal/obs"
	"dkbms/internal/rel"
	"dkbms/internal/sched"
)

// Partitioning thresholds. Below these sizes the serial loop wins: the
// per-partition bookkeeping (maps, slices, task handoff) costs more
// than the work it divides.
const (
	// dedupThreshold is the per-iteration raw result size (tuples
	// across all differentials) at which Go-side dedup is hash-range
	// partitioned across workers.
	dedupThreshold = 256
	// partitionThreshold is the per-predicate delta size at which the
	// delta relation is split into hash-range partition tables so each
	// differential SELECT becomes parts independent jobs.
	partitionThreshold = 1024
)

// tupleShard assigns a tuple key to one of parts hash-range partitions.
// FNV-1a: cheap, stable, and independent of Go's map hash so partition
// contents are deterministic across runs.
func tupleShard(key []byte, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(parts))
}

// hashPartitioned is the delta strategy behind Options.Parallel — the
// paper's conclusions 7a and 6b realized on the bounded scheduler: every
// differential of a round is a read-only SELECT run as a pool task
// (the engine's buffer pool and indexes are safe for concurrent
// readers); the new tuples are found against a sharded Go-side index of
// the accumulated relation — per-partition hash sets, lock-free —
// instead of SQL set differences, and bulk-installed; and a large delta
// is split into hash-range partition tables so a single rule's
// differential divides across workers. It computes the first delta from
// exit rules only (Fixpoint.First is sqlExcept's). Answers are
// identical to sqlExcept's.
type hashPartitioned struct {
	fp *Fixpoint
	// client is the evaluation's admission handle on the shared worker
	// pool (nil: every job runs inline); parts is the hash-range
	// partition count (1 = no partitioning).
	client *sched.Client
	parts  int
	seeds  map[string][]rel.Tuple

	acc    map[string]*accSet
	deltas map[string]*deltaRelation
	// fresh is the pending delta, by shard then predicate.
	fresh []map[string][]rel.Tuple
}

// runJobs executes n independent jobs on the shared worker pool (fair
// admission across sessions), or inline in order when the evaluation
// has none. The job's second argument is the pool worker index (-1
// inline).
func (h *hashPartitioned) runJobs(n int, job func(i, worker int)) {
	if h.client == nil || n <= 1 {
		for i := 0; i < n; i++ {
			job(i, -1)
		}
		return
	}
	g := h.client.Group()
	for i := 0; i < n; i++ {
		i := i
		g.Go(func(worker int) { job(i, worker) })
	}
	g.Wait()
}

// selects evaluates a round's differentials concurrently on the job
// runner. When sp is non-nil each records a "rule <head>" span under it
// holding its operator tree (the trace serializes concurrent appends),
// tagged with the worker that ran it. results[i] belongs to jobs[i].
func (h *hashPartitioned) selects(jobs []differential, sp *obs.Span) ([][]rel.Tuple, error) {
	fp := h.fp
	results := make([][]rel.Tuple, len(jobs))
	errs := make([]error, len(jobs))
	t0 := time.Now()
	h.runJobs(len(jobs), func(i, worker int) {
		var jobSp *obs.Span
		if sp != nil {
			jobSp = sp.Start("rule " + jobs[i].rule.Head)
			jobSp.SetInt("sched.worker", int64(worker))
		}
		rows, err := jobs[i].stmt.Query(evalCtx(fp.Ctx), jobSp, jobs[i].tables...)
		jobSp.End()
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = rows.Tuples
	})
	fp.Stats.Eval += time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// accSet is one predicate's accumulated-tuple index, sharded by hash
// range: shard k holds exactly the keys tupleShard assigns to k, so a
// partitioned dedup pass owns its shard exclusively and runs without
// locks.
type accSet struct {
	shards []map[string]bool
}

func newAccSet(parts int) *accSet {
	s := &accSet{shards: make([]map[string]bool, parts)}
	for i := range s.shards {
		s.shards[i] = make(map[string]bool)
	}
	return s
}

// add inserts a tuple key (serial use); reports whether it was new.
// Only a new key allocates.
func (s *accSet) add(key []byte) bool {
	return addKey(s.shards[tupleShard(key, len(s.shards))], key)
}

func addKey(m map[string]bool, key []byte) bool {
	if m[string(key)] {
		return false
	}
	m[string(key)] = true
	return true
}

// derive runs the differentials, filters their results down to the
// tuples the accumulators lack, installs those into Into and leaves
// them in h.fresh, indexed by partition then predicate — partition p's
// tuples all hash to shard p, which is exactly the layout the
// partitioned delta tables want. Small batches dedup serially into
// partition 0's slot (same hash shards, so correctness is unaffected);
// large ones fan one task per shard onto the pool, each task probing
// and updating only its own shard — lock-free.
func (h *hashPartitioned) derive(jobs []differential, sp *obs.Span) error {
	fp, parts := h.fp, h.parts
	results, err := h.selects(jobs, sp)
	if err != nil {
		return err
	}
	out := make([]map[string][]rel.Tuple, parts)
	for p := range out {
		out[p] = make(map[string][]rel.Tuple)
	}
	h.fresh = out
	total := 0
	for _, rows := range results {
		total += len(rows)
	}
	t0 := time.Now()
	if parts == 1 || total < dedupThreshold {
		var key []byte
		for i, rows := range results {
			head := jobs[i].rule.Head
			a := h.acc[head]
			for _, tu := range rows {
				key = tu.AppendKey(key[:0], nil)
				if a.add(key) {
					out[0][head] = append(out[0][head], tu)
				}
			}
		}
	} else {
		// Precompute shards once (the partition tasks would otherwise
		// each hash every tuple); a task re-encodes only its own
		// shard's keys, into its own scratch buffer.
		shards := make([][]uint8, len(results))
		h.runJobs(len(results), func(i, _ int) {
			var key []byte
			shards[i] = make([]uint8, len(results[i]))
			for j, tu := range results[i] {
				key = tu.AppendKey(key[:0], nil)
				shards[i][j] = uint8(tupleShard(key, parts))
			}
		})
		h.runJobs(parts, func(p, _ int) {
			var key []byte
			for i, rows := range results {
				head := jobs[i].rule.Head
				m := h.acc[head].shards[p]
				for j, tu := range rows {
					if int(shards[i][j]) != p {
						continue
					}
					key = tu.AppendKey(key[:0], nil)
					if addKey(m, key) {
						out[p][head] = append(out[p][head], tu)
					}
				}
			}
		})
	}
	fp.Stats.TermCheck += time.Since(t0)
	for _, p := range fp.Preds {
		if err := fp.DB.InsertTuples(fp.Into(p), h.pendingTuples(p)); err != nil {
			return err
		}
	}
	return nil
}

// pendingTuples gathers pred's pending delta across shards.
func (h *hashPartitioned) pendingTuples(pred string) []rel.Tuple {
	var all []rel.Tuple
	for _, m := range h.fresh {
		all = append(all, m[pred]...)
	}
	return all
}

// deltaRelation materializes one predicate's per-iteration delta in the
// DBMS — the differential SELECTs read it — optionally split into
// hash-range partition tables so each differential over a large delta
// becomes parts independent jobs (conclusion 7a taken inside a single
// rule application).
type deltaRelation struct {
	names  []string // partition tables, created lazily; names[0] first
	dirty  []bool   // partition holds rows from the previous fill
	active []string // partitions holding the current delta
}

// fill installs pred's pending delta into partition tables. Small
// deltas collapse into partition 0 — one differential per rule
// occurrence; large ones occupy one table per non-empty shard.
func (h *hashPartitioned) fill(pred string) error {
	fp, dr := h.fp, h.deltas[pred]
	// Clear previously used partitions.
	t0 := time.Now()
	for i, d := range dr.dirty {
		if d {
			if err := fp.DB.Exec("DELETE FROM " + dr.names[i]); err != nil {
				return err
			}
			dr.dirty[i] = false
		}
	}
	fp.Stats.TempTable += time.Since(t0)
	dr.active = dr.active[:0]
	install := func(part int, tuples []rel.Tuple) error {
		if len(tuples) == 0 {
			return nil
		}
		for len(dr.names) <= part {
			name := fmt.Sprintf("%spdelta%d_%s", fp.Prefix, len(dr.names), sanitize(pred))
			if err := fp.createTemp(name, pred); err != nil {
				return err
			}
			dr.names = append(dr.names, name)
			dr.dirty = append(dr.dirty, false)
		}
		if err := fp.DB.InsertTuples(dr.names[part], tuples); err != nil {
			return err
		}
		dr.dirty[part] = true
		dr.active = append(dr.active, dr.names[part])
		return nil
	}
	all := h.pendingTuples(pred)
	if h.parts == 1 || len(all) < partitionThreshold {
		return install(0, all)
	}
	for part, m := range h.fresh {
		if err := install(part, m[pred]); err != nil {
			return err
		}
	}
	return nil
}

func (h *hashPartitioned) start(fp *Fixpoint, zero *obs.Span) error {
	h.fp = fp
	zero.SetInt("sched.partitions", int64(h.parts))
	// acc indexes the accumulated tuples per predicate (the seeds are
	// already in the relations), so deduplication needs no SQL set
	// differences.
	h.acc = make(map[string]*accSet, len(fp.Preds))
	h.deltas = make(map[string]*deltaRelation, len(fp.Preds))
	for _, p := range fp.Preds {
		h.acc[p] = newAccSet(h.parts)
		for _, tu := range h.seeds[p] {
			h.acc[p].add(tu.AppendKey(nil, nil))
		}
		h.deltas[p] = &deltaRelation{}
	}
	// Initialization: exit rules, evaluated concurrently as well.
	jobs := make([]differential, len(fp.exit))
	for i := range fp.exit {
		var err error
		if jobs[i], err = fp.job(&fp.exit[i], RuleSelect); err != nil {
			return err
		}
	}
	if err := h.derive(jobs, zero); err != nil {
		return err
	}
	// Seeds are part of the first delta too.
	for _, p := range fp.Preds {
		h.fresh[0][p] = append(h.fresh[0][p], h.seeds[p]...)
		if zero != nil {
			n, _ := h.pending(p)
			zero.SetInt("delta("+p+")", n)
		}
	}
	return h.advance()
}

func (h *hashPartitioned) form() RuleForm { return RuleSelect }

func (h *hashPartitioned) current(pred string) []string {
	if dr := h.deltas[pred]; dr != nil {
		return dr.active
	}
	return nil
}

func (h *hashPartitioned) fire(jobs []differential, it *obs.Span) error {
	return h.derive(jobs, it)
}

// pending is a slice-length sum: the paper's SQL termination test is
// gone (conclusion 6b).
func (h *hashPartitioned) pending(pred string) (int64, error) {
	n := 0
	for _, m := range h.fresh {
		n += len(m[pred])
	}
	return int64(n), nil
}

func (h *hashPartitioned) advance() error {
	for _, p := range h.fp.Preds {
		if err := h.fill(p); err != nil {
			return err
		}
	}
	return nil
}

func (h *hashPartitioned) finish() error {
	fp := h.fp
	for _, p := range fp.Preds {
		t0 := time.Now()
		for _, name := range h.deltas[p].names {
			if err := fp.Temps.drop(name); err != nil {
				return err
			}
		}
		fp.Stats.TempTable += time.Since(t0)
	}
	return nil
}
