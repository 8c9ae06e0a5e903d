package dkbms

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"dkbms/internal/dlog"
	"dkbms/internal/workload"
)

// leafToRoot is the Test 6 workload (ancestor over a full binary tree)
// asked from the last leaf upward, with the child column indexed: the
// magic set is the leaf alone, every semi-naive round derives exactly
// one tuple — the next ancestor up — through one index probe, and the
// run takes as many rounds as the tree is deep. So between two depths
// only the number of rounds differs, not the work of a round.
func leafToRoot(t *testing.T, depth int) (run func() int) {
	t.Helper()
	tb := NewMemory()
	t.Cleanup(func() { tb.Close() })
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(depth)); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateFactIndex("parent", 1); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	q := "?- ancestor(X, " + workload.TreeNode(workload.TreeNodes(depth)) + ")."
	return func() int {
		res, err := tb.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != depth-1 {
			t.Fatalf("depth %d: %d ancestors", depth, len(res.Rows))
		}
		return int(res.Iterations())
	}
}

// sqlFrontEndAllocs counts the objects allocated under a frame of
// internal/sql — lexer, parser — while run executes. Objects of up to
// 16 bytes are left out: the runtime packs the pointer-free ones of
// them several to a block and samples the block, so their count is not
// repeatable; the token slice, the statement and every expression node
// are larger.
func sqlFrontEndAllocs(run func()) int64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	count := func() (n int64) {
		// The profile is as of the last collection but one.
		runtime.GC()
		runtime.GC()
		recs := make([]runtime.MemProfileRecord, 1024)
		for {
			got, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:got]
				break
			}
			recs = make([]runtime.MemProfileRecord, 2*got)
		}
		for i := range recs {
			if recs[i].AllocBytes <= 16*recs[i].AllocObjects {
				continue
			}
			frames := runtime.CallersFrames(recs[i].Stack())
			for {
				f, more := frames.Next()
				if strings.HasPrefix(f.Function, "dkbms/internal/sql.") {
					n += recs[i].AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return n
	}
	before := count()
	run()
	return count() - before
}

// TestRoundAllocsExcludeParse pins what a semi-naive round allocates
// and that none of it is the SQL front end's: rule statements are
// parsed and bound once per database, so the first run on a fresh one
// parses its statements, a run four rounds longer allocates four
// rounds' executions more and not one token, and no run after the
// first parses at all.
func TestRoundAllocsExcludeParse(t *testing.T) {
	const shallow, deep = 8, 12
	fresh := leafToRoot(t, shallow)
	if first := sqlFrontEndAllocs(func() { fresh() }); first == 0 {
		t.Error("the first run on a fresh database allocates nothing in internal/sql: its statements were not parsed")
	}
	runs := map[int]func() int{shallow: leafToRoot(t, shallow), deep: leafToRoot(t, deep)}
	rounds := map[int]int{shallow: runs[shallow](), deep: runs[deep]()}
	if rounds[deep]-rounds[shallow] != deep-shallow {
		t.Fatalf("rounds %v: want one more per level", rounds)
	}
	allocs := make(map[int]float64)
	parse := make(map[int]int64)
	for depth, run := range runs {
		run := run
		allocs[depth] = testing.AllocsPerRun(10, func() { run() })
		parse[depth] = sqlFrontEndAllocs(func() { run() })
	}
	// A round here is a CREATE and a DROP of a delta table, the rule
	// statement, the COUNT(*) and the promotion, each run on the
	// operator tree its statement kept from the round before, re-bound
	// to this round's tables (no round changes a decision), and in that
	// tree's working memory: 27.5 objects (the rounds of the deeper run
	// read more pages). All of them are the statements' work — the
	// temp table's heap, catalog entry and first page, and the growth of
	// the sets, key tables and build arenas over the accumulating
	// tables; the fixpoint's own bookkeeping allocates nothing a
	// round. It was 44.5 while Fixpoint.Run allocated per round what it
	// now allocates once per fixpoint. By allocation site (a profile of
	// the two depths' difference) the 17 were, to within half an object:
	//   - the COUNT(*) termination check collected its one row into a
	//     row set — a record list, a decoded block, its tuples, a
	//     db.Rows — where it now reads the count off the COUNT(*)
	//     operator after a pass that emits nothing (6;
	//     TestQueryCountAllocatesNothing, 7 a check before);
	//   - the pending delta's name was formatted per round (fmt.Sprintf
	//     and sanitize), where each predicate's two names now alternate
	//     by round parity (4.5);
	//   - the map of pending deltas was made and filled per round (2);
	//   - the round's differential list, each differential's table list
	//     and the base relation's name (codegen.BaseTable) were built
	//     per round, where each differential is bound once per fixpoint
	//     and base names once per run (3);
	//   - each INSERT … SELECT streamed through a closure of its own,
	//     where the kept tree's inserter is made once (2).
	//
	// 44.5 was 129.5 while the operators decoded rows:
	// scans decoded each page into a block, an index join its probe
	// batches, joins and projections cut their rows from slabs, and the
	// EXCEPT re-encoded every row into its key set. On the record path
	// nothing between a heap page and the set allocates per page or per
	// row; what a round still allocates is the sets', key tables' and
	// build arenas' growth over the accumulating tables, the statements'
	// and the root's bookkeeping. 129.5 was
	// 137.75 while every scan decoded its whole table in Open:
	//   - a lent scan (a Project's input, a hash join's probe side)
	//     decoded page after page into one block, sized to the largest
	//     page it had read; the block an unlent scan kept for that page
	//     took a fresh, exact slab whenever the page outgrew it (7.5);
	//   - a lent scan kept no list of blocks (0.5);
	//   - the rest was objects of up to 16 bytes (0.25).
	//
	// 137.75 was 204 while Close dropped what the tree read and built. By
	// allocation site, 137.75 = 204 − 44.5 − 3.3 − 11 − 3.75 − 0.5 − 3.2:
	//   - re-opened scans decode their pages over the last execution's
	//     blocks, with the decoder's scratch (44.5; 18.75 a round still
	//     take a fresh, exact slab, the accumulating table's last page
	//     having grown);
	//   - index scans and joins keep their block, batch and decoder (3.3);
	//   - hash-join build sides, sets and their key scratch are reset
	//     instead of rebuilt (11);
	//   - the two EXCEPTs probe the right input's records through a
	//     function made once per operator, not two per execution (3.75);
	//   - slabs rewind (0.5);
	//   - the rest is objects of up to 16 bytes, which the profile counts
	//     only in part (3.2).
	//
	// 204 was 254 while every execution constructed its tree: 204 = 254 −
	// 12 − 6 − 28 − 4. Build itself allocates 12 fewer (it counts an
	// index scan's rows instead of listing them, builds one probe key,
	// and takes one scratch slice per kind, none for a single table);
	// keeping the tree keeps its scratch (6); re-binding keeps the
	// operators, predicates and projections (28); and closed scans keep
	// their emptied block lists (4). Before that, 272 = 254 +
	// 14 + 4 while every row a join or a projection emitted was handed
	// out of its slab (the first rows of an execution take a chunk each:
	// 18 a round, against 4 once a borrowed producer wrote all its rows
	// into one chunk) and while the EXCEPT's set kept its rows and
	// INSERT collected and re-encoded them (4 more); 397 when each
	// statement was also rendered, lexed, parsed and bound. The
	// runtime's own allocations move a run by one or two.
	const perRound = 27.5
	if got := (allocs[deep] - allocs[shallow]) / (deep - shallow); math.Abs(got-perRound) > 1 && !raceEnabled {
		t.Errorf("a round allocates %.2f objects (%.0f over %d rounds, %.0f over %d), pinned %.2f",
			got, allocs[shallow], rounds[shallow], allocs[deep], rounds[deep], perRound)
	}
	if parse[shallow] != 0 || parse[deep] != 0 {
		t.Errorf("internal/sql allocates %d objects in a warm run of %d rounds, %d in one of %d: want 0, the statements being parsed once per database",
			parse[shallow], rounds[shallow], parse[deep], rounds[deep])
	}
}

// TestCompileParsesNoSQL pins the Knowledge Manager's read path to its
// prepared statements: once the manager is open and an extraction of
// each frontier width has been prepared, compiling a stored-rule query —
// on the live database and through a pinned snapshot's views — and
// reading both dictionaries allocate nothing in the SQL front end.
func TestCompileParsesNoSQL(t *testing.T) {
	tb := NewMemory()
	t.Cleanup(func() { tb.Close() })
	if err := tb.AssertTuples("parent", workload.FullBinaryTree(5)); err != nil {
		t.Fatal(err)
	}
	tb.MustLoad(`
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
`)
	if _, err := tb.Update(); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(tb)
	compile := func(node int) {
		q, err := dlog.ParseQuery("?- ancestor(" + workload.TreeNode(node) + ", W).")
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := tb.Compile(q, nil)
		if err != nil || compiled.Stats.RelevantRules != 2 {
			t.Fatalf("compile: %v, %+v", err, compiled)
		}
		s, err := c.acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		vdb, vst := c.view(s)
		if _, err := tb.compile(s.WS(), vdb, vst, q, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	compile(1) // prepares the extraction of each width the compile asks for
	parse := sqlFrontEndAllocs(func() {
		compile(2)
		if _, err := tb.Stored().BaseTypes([]string{"parent"}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Stored().DerivedTypes([]string{"ancestor"}); err != nil {
			t.Fatal(err)
		}
	})
	if parse != 0 {
		t.Errorf("a compile and two dictionary reads allocate %d objects in internal/sql, want 0", parse)
	}
}
