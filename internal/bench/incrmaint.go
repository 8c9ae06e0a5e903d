package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dkbms"
	"dkbms/internal/dlog"
)

func init() {
	register("incr-maint", "incremental view maintenance vs re-derivation under an update stream",
		incrMaint)
}

// maintSide is one way of keeping the ancestor answer current: a fact
// load, a fact retract and a read of the answer.
type maintSide struct {
	load    func(string) error
	retract func(string) (int, error)
	read    func() (*dkbms.QueryResult, error)
}

// incrMaint measures the cost of keeping a memoized ancestor closure
// fresh under a fact-update stream. One cycle is: LOAD a batch of new
// leaf edges, re-read the query, RETRACT the batch, re-read again.
// served_us is the cycle on a ConcurrentTestbed, whose plan cache
// maintains the memo through each commit while the relevant delta stays
// below the cost crossover (delta <= max(16, answer/4),
// matview.AutoIncremental) and re-derives past it. rederive_us is the
// same cycle on a plain Testbed running the same compiled program
// through Load/Evaluate/Retract/Evaluate: what a dropped memo costs,
// minus the commit's copy-on-write, so a lower bound. Answers at both
// cycle points are verified equal to the plain testbed's before timing.
func incrMaint(cfg Config) (*Report, error) {
	depth := cfg.pick(10, 6)
	batches := []int{1, 4, 16, 64, 256}
	if cfg.Quick {
		batches = []int{1, 8, 64}
	}

	// Full binary tree in heap order; leaves start at 2^(depth-1), so
	// hanging fresh children off the first leaf keeps them reachable
	// from the root without touching existing internal edges.
	nodes := (1 << depth) - 1
	leaf := 1 << (depth - 1)
	var src strings.Builder
	for i := 1; 2*i+1 <= nodes; i++ {
		fmt.Fprintf(&src, "parent(t%d, t%d).\nparent(t%d, t%d).\n", i, 2*i, i, 2*i+1)
	}
	src.WriteString(ancestorRules)
	const q = "?- ancestor(t1, W)."
	query, err := dlog.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	baseRows := nodes - 1

	batchSrc := func(k int) string {
		var b strings.Builder
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "parent(t%d, z%d).\n", leaf, i)
		}
		return b.String()
	}
	retractPat := fmt.Sprintf("parent(t%d, X)", leaf) // the leaf has no other children

	// cycle applies one insert batch + read + retract + read and returns
	// the wall-clock total plus the answer at both points.
	cycle := func(s maintSide, k int) (time.Duration, string, error) {
		ins := batchSrc(k)
		start := time.Now()
		if err := s.load(ins); err != nil {
			return 0, "", err
		}
		up, err := s.read()
		if err != nil {
			return 0, "", err
		}
		if n, err := s.retract(retractPat); err != nil || n != k {
			return 0, "", fmt.Errorf("incr-maint: retract %d of %d: %v", n, k, err)
		}
		down, err := s.read()
		if err != nil {
			return 0, "", err
		}
		took := time.Since(start)
		if len(up.Rows) != baseRows+k {
			return 0, "", fmt.Errorf("incr-maint: batch %d: %d rows after insert, want %d", k, len(up.Rows), baseRows+k)
		}
		return took, sortedRows(up) + "|" + sortedRows(down), nil
	}

	// batch measures one batch size on a fresh served testbed c and a
	// fresh plain one tb: a warm read and one verified cycle on each,
	// then the timed cycles, the maintenance counters covering those
	// only.
	batch := func(c *dkbms.ConcurrentTestbed, tb *dkbms.Testbed, k int) ([2]time.Duration, []string, error) {
		var took [2]time.Duration
		for _, load := range []func(string) error{c.Load, tb.Load} {
			if err := load(src.String()); err != nil {
				return took, nil, err
			}
		}
		compiled, err := tb.Compile(query, nil)
		if err != nil {
			return took, nil, err
		}
		sides := [2]maintSide{
			{c.Load, c.RetractSrc, func() (*dkbms.QueryResult, error) { return c.Query(q, nil) }},
			{tb.Load, tb.RetractSrc, func() (*dkbms.QueryResult, error) { return tb.Evaluate(compiled, nil) }},
		}
		var answers [2]string
		for i, s := range sides {
			res, err := s.read()
			if err == nil && len(res.Rows) != baseRows {
				err = fmt.Errorf("incr-maint: base closure %d rows, want %d", len(res.Rows), baseRows)
			}
			if err == nil {
				_, answers[i], err = cycle(s, k)
			}
			if err != nil {
				return took, nil, err
			}
		}
		if answers[0] != answers[1] {
			return took, nil, fmt.Errorf("incr-maint: batch %d: served answers diverge from re-derivation", k)
		}
		before := c.MatViewStats()
		for i, s := range sides {
			if took[i], err = measure(cfg.reps(), func() (time.Duration, error) {
				d, _, err := cycle(s, k)
				return d, err
			}); err != nil {
				return took, nil, err
			}
		}
		after := c.MatViewStats()
		return took, []string{
			fmt.Sprint(k), us(took[0]), us(took[1]),
			fmt.Sprint(after.Maintained - before.Maintained),
			fmt.Sprint(after.Rederives - before.Rederives),
			fmt.Sprint(after.DeltaTuples - before.DeltaTuples),
			fmt.Sprint(baseRows + k),
		}, nil
	}

	rep := &Report{
		ID:    "incr-maint",
		Title: "incremental view maintenance vs re-derivation under an update stream",
		Paper: "the testbed re-derives after every update; delta-rule maintenance of memoized answers is the post-paper extension measured here",
		Cols: []string{"batch", "served_us", "rederive_us", "maintained", "rederived",
			"delta_tuples", "answer_rows"},
	}
	var first [2]time.Duration
	for i, k := range batches {
		c, tb := dkbms.NewConcurrent(dkbms.NewMemory()), dkbms.NewMemory()
		took, row, err := batch(c, tb, k)
		c.Close()
		tb.Close()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = took
		}
		rep.Rows = append(rep.Rows, row)
	}

	if first[1] > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"batch %d: served cycle %v vs re-derivation %v (served/rederive %.2f), answers exactly equal",
			batches[0], first[0].Round(time.Microsecond), first[1].Round(time.Microsecond), float64(first[0])/float64(first[1])))
	}
	crossover := baseRows / 4
	if crossover < 16 {
		crossover = 16
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"a commit is maintained while its relevant delta <= max(16, answer/4), %d tuples on the base answer; rederived counts the commits past it",
		crossover))
	return rep, nil
}

// sortedRows canonicalizes an answer for exact-set comparison.
func sortedRows(res *dkbms.QueryResult) string {
	keys := make([]string, len(res.Rows))
	for i, tu := range res.Rows {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
