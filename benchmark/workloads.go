package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/server"
)

// workload is one of the benchmark's five loads. Names are final:
// later changes cite them. BENCHMARK.json says why each exists.
type workload struct {
	name string
	// rate is the operations a caller completes per second on the 2-CPU
	// reference host, rounded down; round is the length of the caller's
	// fixed pattern of operations. Together they size a lap.
	rate, round int
	// setup generates the inputs from the seed, builds and warms the
	// D/KB and returns it ready to be measured. dir is a fresh directory
	// for a database file.
	setup func(sz sizes, seed int64, dir string) (*instance, error)
}

var workloads = []workload{
	{"closure_cold", 70, 12, setupClosureCold},
	{"point_bigedb", 10, 10, setupPointBigEDB},
	{"km_rules", 960, 20, setupKMRules},
	{"serve_hot", 20000, 1, setupServeHot},
	{"serve_churn", 270, 120, setupServeChurn},
}

// opsFor is the number of operations per caller in each lap of a run
// whose laps together take about the given time on the reference host:
// a whole number of patterns. A run is sized by it, never by the clock:
// a faster program finishes sooner, it does not run more.
func (w workload) opsFor(seconds float64) int {
	return w.round * max(1, int(seconds*float64(w.rate)/laps)/w.round)
}

// instance is one built, warmed D/KB and the callers that load it.
type instance struct {
	callers []caller
	// tb is the engine: used directly by a local workload, wrapped by
	// ctb and served by srv in a server workload.
	tb  *dkbms.Testbed
	ctb *dkbms.ConcurrentTestbed
	srv *server.Server
	// stopServer ends the server and waits for its sessions.
	stopServer func() error
	clients    []*client.Client
	// dbPath is the database file, "" for an in-memory D/KB.
	dbPath string
	// userBytes is the payload of the user's facts and rules stored
	// right now.
	userBytes func() int64
	// reverify, when set, is called with the D/KB reopened after a
	// clean close and re-checks a sample of answers.
	reverify func(tb *dkbms.Testbed) (samples, error)
	// parallelSlice is a fixed slice of query texts for the Parallel and
	// Trace option probes (closure_cold only).
	parallelSlice []string
	// rewind, set by workloads whose D/KB no op changes, restarts the
	// callers' sequences, so that a traced phase replays the ops the
	// untraced phase began with.
	rewind func()
	closed bool
}

func (in *instance) layerTimes() *layerTimes {
	var total layerTimes
	for _, c := range in.callers {
		total.merge(c.traced())
	}
	return &total
}

// close tears the instance down: connections, server, testbed. A
// second close does nothing.
func (in *instance) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	for _, cl := range in.clients {
		cl.Close()
	}
	var err error
	if in.stopServer != nil {
		err = in.stopServer()
	}
	if in.ctb != nil {
		if cerr := in.ctb.Close(); err == nil {
			err = cerr
		}
	} else if cerr := in.tb.Close(); err == nil {
		err = cerr
	}
	return err
}

// warm runs every given op once, untimed, and fails on a wrong answer:
// a D/KB that answers wrongly before timing starts is a set-up error.
func warm(c caller, ops []op) error {
	for _, o := range ops {
		r, err := c.do(o)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", o.text, err)
		}
		if got := r.answer(); got != o.want {
			return fmt.Errorf("warm-up %s: got %d rows, oracle expects %d (or checksums differ)", o.text, got.rows, o.want.rows)
		}
	}
	return nil
}

// sequence is a pre-generated run of ops, walked round and round.
type sequence struct {
	ops []op
	i   int
}

func (s *sequence) next() op {
	o := s.ops[s.i%len(s.ops)]
	s.i++
	return o
}

func (s *sequence) rewind() { s.i = 0 }

// constant is a userBytes for a D/KB whose facts no op changes.
func constant(n int64) func() int64 { return func() int64 { return n } }

func query(text string, want answer) op {
	return op{verb: verbQuery, text: text, want: want, static: true}
}

// --- closure_cold ---

// closureOps is the length of the pre-generated closure_cold sequence;
// a run that outlasts it starts over (the D/KB is static).
const closureOps = 1200

func setupClosureCold(sz sizes, seed int64, _ string) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	tree := treeEdges("t", sz.treeDepth)
	dag := dagEdges(sz.dagLayers, sz.dagWide)
	cyc := cyclicEdges(sz.cycles, sz.cycleLen)

	tb := dkbms.NewMemory()
	in := &instance{tb: tb, userBytes: constant(factBytes(tree) + factBytes(dag) + factBytes(cyc))}
	for _, r := range []struct {
		pred  string
		edges []edge
	}{{"parent", tree}, {"edge", dag}, {"link", cyc}} {
		if err := tb.AssertTuples(r.pred, tuples(r.edges)); err != nil {
			return in, err
		}
		if err := tb.CreateFactIndex(r.pred, 0); err != nil {
			return in, err
		}
	}
	if err := tb.Load(closureRules); err != nil {
		return in, err
	}

	treeG, dagG, cycG := newGraph(tree), newGraph(dag), newGraph(cyc)
	memo := map[string]answer{}
	expect := func(text string, f func() answer) op {
		a, ok := memo[text]
		if !ok {
			a = f()
			memo[text] = a
		}
		return query(text, a)
	}
	// One class of query per constructor; within a class every seeded
	// choice costs the same (same level, same out-degree, one component).
	last := sz.treeDepth - 1
	level := func(l int) int { return min(l, last-1) }
	classes := []func() op{
		func() op { // unbound linear closure over the tree
			return expect("?- ancestor(X, Y).", treeG.closure)
		},
		func() op { // bound, half the tree
			n := treeNode("t", nodeAtLevel(rng, level(1)))
			return expect("?- ancestor("+n+", Y).", func() answer { return treeG.closureFrom(n) })
		},
		func() op { // bound, high selectivity
			n := treeNode("t", nodeAtLevel(rng, level(4)))
			return expect("?- ancestor("+n+", Y).", func() answer { return treeG.closureFrom(n) })
		},
		func() op { // bound non-linear same-generation
			i := nodeAtLevel(rng, level(5))
			return expect("?- sg("+treeNode("t", i)+", Y).", func() answer { return sgFrom("t", i) })
		},
		func() op { // unbound closure over the DAG
			return expect("?- reach(X, Y).", dagG.closure)
		},
		func() op { // bound closure from a DAG source
			n := dagNode(0, rng.Intn(sz.dagWide))
			return expect("?- reach("+n+", Y).", func() answer { return dagG.closureFrom(n) })
		},
		func() op { // bound reach round the cycles
			n := cycNode(rng.Intn(sz.cycles), 1)
			return expect("?- conn("+n+", Y).", func() answer { return cycG.closureFrom(n) })
		},
	}
	// The mix is a fixed pattern over the classes, and a lap a whole
	// number of patterns. A third of the ops are of the class the median
	// falls in (bound reach over the DAG, ~6 ms), a third are cheaper and
	// a third dearer, up to the unbound closures (~45 ms), so neither the
	// median nor the 95th percentile sits where two classes meet.
	pattern := []int{0, 2, 5, 3, 4, 5, 6, 2, 5, 3, 1, 5}
	ops := make([]op, closureOps)
	for i := range ops {
		ops[i] = classes[pattern[i%len(pattern)]]()
	}
	seq := &sequence{ops: ops}
	c := &localCaller{tb: tb, gen: seq.next}
	in.callers, in.rewind = []caller{c}, seq.rewind
	for _, o := range ops[:20] {
		in.parallelSlice = append(in.parallelSlice, o.text)
	}
	err := warm(c, ops[:len(pattern)])
	seq.rewind()
	return in, err
}

// --- point_bigedb ---

// pointOps is the length of the pre-generated point_bigedb sequence
// (more than a run of 60 s completes; the oracle's graph is dropped once
// the expected answers are computed, so that the heap the run reports
// is the program's).
const pointOps = 600

func setupPointBigEDB(sz sizes, seed int64, dir string) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(dir, "point_bigedb.db")
	tb, err := dkbms.Open(path)
	if err != nil {
		return nil, err
	}
	in := &instance{tb: tb, dbPath: path}
	g := graph{}
	var bytes int64
	for k := 0; k < sz.forestTrees; k++ {
		edges := treeEdges(forestPrefix(k), sz.forestDepth)
		bytes += factBytes(edges)
		for _, e := range edges {
			g.add(e)
		}
		if err := tb.AssertTuples("parent", tuples(edges)); err != nil {
			return in, err
		}
	}
	in.userBytes = constant(bytes)
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		return in, err
	}
	if err := tb.Load(closureRules); err != nil {
		return in, err
	}
	// Nodes 0 to 3 levels above the leaves: subtrees of at most 14
	// descendants, well under 1 % of a tree, in a fixed pattern of
	// heights; a lap is a whole number of patterns.
	heights := []int{0, 1, 0, 2, 0, 1, 3, 0, 1, 2}
	ops := make([]op, pointOps)
	for i := range ops {
		h := min(heights[i%len(heights)], sz.forestDepth-2)
		n := treeNode(forestPrefix(rng.Intn(sz.forestTrees)), nodeAtLevel(rng, sz.forestDepth-1-h))
		ops[i] = query("?- ancestor("+n+", W).", g.closureFrom(n))
	}
	seq := &sequence{ops: ops}
	c := &localCaller{tb: tb, gen: seq.next}
	in.callers, in.rewind = []caller{c}, seq.rewind
	return in, warm(c, ops[:4])
}

// --- km_rules ---

func setupKMRules(sz sizes, seed int64, _ string) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	tb := dkbms.NewMemory()
	in := &instance{tb: tb}
	rb := &ruleBase{bodies: map[string][]string{}, facts: map[string]edge{}}
	var bytes int64
	for k := 0; k < sz.chains; k++ {
		f := edge{fmt.Sprintf("x%d", k), fmt.Sprintf("y%d", k)}
		rb.facts[chainBase(k)] = f
		bytes += factBytes([]edge{f})
		if err := tb.AssertTuples(chainBase(k), tuples([]edge{f})); err != nil {
			return in, err
		}
		for j := 0; j < sz.chainLen; j++ {
			body := chainBase(k)
			if j+1 < sz.chainLen {
				body = chainPred(k, j+1)
			}
			rb.addRule(chainPred(k, j), body)
		}
	}
	rules := chainRules(sz.chains, sz.chainLen)
	bytes += int64(len(rules))
	in.userBytes = func() int64 { return bytes }
	if err := tb.Load(rules); err != nil {
		return in, err
	}
	if _, err := tb.Update(); err != nil {
		return in, err
	}

	queryAt := func(depth int) op {
		p := chainPred(rng.Intn(sz.chains), depth)
		return op{verb: verbQuery, text: "?- " + p + "(X, Y).", want: rb.answerTo(p)}
	}
	chainQuery := func() op { return queryAt(rng.Intn(sz.chainLen)) }
	// A fixed pattern of 20 ops: one commits a fresh batch of rules, two
	// query a predicate one of the last batches defined (so what an
	// update stored is read back), two query the head of a chain (the
	// dearest query, R_r = chainLen: a tenth of the queries, so the 95th
	// percentile sits inside that class and not where it meets the next),
	// 15 query a chain predicate at a seeded depth (R_r from 1 to
	// chainLen). The batch's rules hang off fixed depths of seeded chains,
	// so every update closes over equally many predicates.
	var recent []string
	n, batches := 0, 0
	gen := func() op {
		i := n % 20
		n++
		switch {
		case i == 19:
			var src strings.Builder
			for j := 0; j < sz.updateBatch; j++ {
				head := fmt.Sprintf("u%d_%d", batches, j)
				body := chainPred(rng.Intn(sz.chains), (2+5*j)%sz.chainLen)
				rb.addRule(head, body)
				src.WriteString(chainRule(head, body))
				src.WriteByte('\n')
				recent = append(recent, head)
			}
			batches++
			if len(recent) > 64 {
				recent = recent[len(recent)-64:]
			}
			bytes += int64(src.Len())
			return op{verb: verbRules, text: src.String(), want: answer{rows: sz.updateBatch}}
		case (i == 6 || i == 13) && len(recent) > 0:
			p := recent[rng.Intn(len(recent))]
			return op{verb: verbQuery, text: "?- " + p + "(X, Y).", want: rb.answerTo(p)}
		case i == 3 || i == 16:
			return queryAt(0)
		}
		return chainQuery()
	}
	c := &localCaller{tb: tb, gen: gen}
	in.callers = []caller{c}
	warmOps := make([]op, 50)
	for i := range warmOps {
		warmOps[i] = chainQuery()
	}
	return in, warm(c, warmOps)
}

// --- server workloads ---

// serve starts an in-process dkbd on loopback with the option values
// cmd/dkbd defaults to, and dials the callers' connections.
func serve(in *instance, callers int) error {
	in.srv = server.New(in.ctb, server.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- in.srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	in.stopServer = func() error {
		cancel()
		return <-done
	}
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		in.stopServer = nil
		cancel()
		return err
	}
	for i := 0; i < callers; i++ {
		cl, err := client.Dial(addr.String())
		if err != nil {
			return err
		}
		in.clients = append(in.clients, cl)
	}
	return nil
}

// loadStaticTree puts the shared static tree and the closure rules into
// a testbed about to be served.
func loadStaticTree(tb *dkbms.Testbed, sz sizes) ([]edge, error) {
	tree := treeEdges("t", sz.treeDepth)
	if err := tb.AssertTuples("parent", tuples(tree)); err != nil {
		return nil, err
	}
	if err := tb.CreateFactIndex("parent", 0); err != nil {
		return nil, err
	}
	return tree, tb.Load(closureRules)
}

func setupServeHot(sz sizes, seed int64, _ string) (*instance, error) {
	tb := dkbms.NewMemory()
	in := &instance{tb: tb}
	tree, err := loadStaticTree(tb, sz)
	if err != nil {
		return in, err
	}
	in.userBytes = constant(factBytes(tree))
	in.ctb = dkbms.NewConcurrent(tb)
	if err := serve(in, sz.callers); err != nil {
		return in, err
	}
	// Popularity rank r asks about a node of level r mod depth, every
	// fourth rank through sg: answer sizes (0 to ~500 rows) are spread
	// over the ranks the same way for every seed; the seed picks the
	// node and the order of arrivals.
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(tree)
	texts := make([]op, 0, sz.hotTexts)
	seen := map[string]bool{}
	for r := 0; len(texts) < sz.hotTexts; r++ {
		i := nodeAtLevel(rng, r%sz.treeDepth)
		n := treeNode("t", i)
		o := query("?- ancestor("+n+", Y).", g.closureFrom(n))
		if r%4 == 3 {
			o = query("?- sg("+n+", Y).", sgFrom("t", i))
		}
		if !seen[o.text] {
			seen[o.text] = true
			texts = append(texts, o)
		}
	}
	arrivals := make([]*rand.Zipf, len(in.clients))
	in.rewind = func() {
		for i := range arrivals {
			// Popularity falls as 1/rank^1.1.
			arrivals[i] = rand.NewZipf(rand.New(rand.NewSource(seed+int64(i)+1)), 1.1, 1, uint64(len(texts)-1))
		}
	}
	in.rewind()
	for i, cl := range in.clients {
		c := &serverCaller{cl: cl, ctb: in.ctb, gen: func() op { return texts[arrivals[i].Uint64()] }}
		in.callers = append(in.callers, c)
		// Posing every text once leaves every measured op a result hit.
		if err := warm(c, texts); err != nil {
			return in, err
		}
	}
	return in, nil
}

// churnRegion is the part of the parent relation one serve_churn
// connection owns: a small tree whose leaves the connection hangs
// families of new facts on and retracts them from. Connections write
// the same relation but disjoint regions, so each one's own sequence of
// synchronous requests determines every answer it must see, whatever
// the other connection commits in between.
type churnRegion struct {
	prefix string
	g      graph
	rng    *rand.Rand
	free   []int // leaves with no family
	live   []int // leaves with a family, oldest first
	fresh  int   // names handed out so far
	// Positions in the fixed write pattern and family-size cycle.
	writes, families, audits int
}

func setupServeChurn(sz sizes, seed int64, dir string) (*instance, error) {
	path := filepath.Join(dir, "serve_churn.db")
	tb, err := dkbms.Open(path)
	if err != nil {
		return nil, err
	}
	in := &instance{tb: tb, dbPath: path}
	tree, err := loadStaticTree(tb, sz)
	if err != nil {
		return in, err
	}
	regions := make([]*churnRegion, sz.callers)
	for i := range regions {
		r := &churnRegion{prefix: fmt.Sprintf("r%d_", i), rng: rand.New(rand.NewSource(seed + int64(i) + 1))}
		edges := treeEdges(r.prefix, sz.regionDepth)
		r.g = newGraph(edges)
		for leaf := 1 << (sz.regionDepth - 1); leaf < 1<<sz.regionDepth; leaf++ {
			r.free = append(r.free, leaf)
		}
		if err := tb.AssertTuples("parent", tuples(edges)); err != nil {
			return in, err
		}
		regions[i] = r
	}
	// The cold relation exists before the run: creating a relation is a
	// rule-generation change, which is not what a cold write measures.
	if err := tb.Load("audit(setup, 0)."); err != nil {
		return in, err
	}
	staticBytes := factBytes(tree)
	in.userBytes = func() int64 {
		n := staticBytes
		for _, r := range regions {
			n += factBytes(r.g.edges())
		}
		return n
	}
	in.ctb = dkbms.NewConcurrent(tb)
	if err := serve(in, sz.callers); err != nil {
		return in, err
	}

	// Shared texts read the static tree: no write changes their answers,
	// every hot commit makes the server maintain or drop them. All ask
	// about one level (30 answers), so evaluating any of them costs the
	// same, about what a region's own text costs.
	rng := rand.New(rand.NewSource(seed))
	g := newGraph(tree)
	var sharedTexts []op
	for seen := map[string]bool{}; len(sharedTexts) < churnSharedTexts; {
		n := treeNode("t", nodeAtLevel(rng, min(4, sz.treeDepth-2)))
		if !seen[n] {
			seen[n] = true
			sharedTexts = append(sharedTexts, query("?- ancestor("+n+", Y).", g.closureFrom(n)))
		}
	}
	for i, r := range regions {
		c := &serverCaller{cl: in.clients[i], ctb: in.ctb, gen: r.generator(sharedTexts)}
		in.callers = append(in.callers, c)
		if err := warm(c, append(append([]op(nil), sharedTexts...), r.ownTexts()...)); err != nil {
			return in, err
		}
	}
	in.reverify = func(tb *dkbms.Testbed) (samples, error) {
		// Rules live in the workspace and do not survive a close.
		if err := tb.Load(closureRules); err != nil {
			return samples{}, err
		}
		var s samples
		c := &localCaller{tb: tb}
		ops := append([]op(nil), sharedTexts...)
		for _, r := range regions {
			ops = append(ops, r.ownTexts()...)
		}
		for _, o := range ops {
			r, err := c.do(o)
			s.record(o, 0, r.answer(), err)
		}
		return s, nil
	}
	return in, nil
}

// churnOwnTexts is how many closure texts a region has of its own: the
// children and grandchildren of its root. There are as many as a
// connection reads between two of its writes, so each is read once per
// commit that dropped its answer.
const churnOwnTexts = 6

// ownText is the region's i-th closure text with its answer as of now.
func (r *churnRegion) ownText(i int) op {
	n := treeNode(r.prefix, 2+i)
	return op{verb: verbQuery, text: "?- ancestor(" + n + ", Y).", want: r.g.closureFrom(n)}
}

func (r *churnRegion) ownTexts() []op {
	out := make([]op, churnOwnTexts)
	for i := range out {
		out[i] = r.ownText(i)
	}
	return out
}

// The connection's mix is a fixed pattern, so that every run commits
// the same kinds of write in the same proportions: of 10 ops 9 read —
// two of the region's own texts, then a shared one, each taken in turn
// — and the 10th writes. Of 12 writes 5 load a family of new facts
// under a free leaf (L), 5 retract the oldest family with one pattern
// (R), 2 load a fact into the audit relation no query reads (C). Loads
// and retractions balance, so the relation's size stays put however
// long the run is. The seed picks the leaves.
//
// Four families in five have 17 to 24 facts: more than the 16 tuples up
// to which the auto policy maintains a view of this size, so loading or
// retracting one drops every memoized answer and the reads that follow
// re-evaluate (plan hits). The fifth has 5: it and its retraction are
// maintained through. This puts two reads in three in one mode of the
// latency distribution, evaluations of like cost, with the median and
// the 95th percentile both inside it. With only small families nearly
// every read is a ~30 us hit, about half of them stretched by the other
// connection's commit, and the median sits on the edge of the two.
const churnWrites = "LRLRCLRLRLRC"

var churnFamily = []int{19, 24, 5, 22, 17}

// churnSharedTexts is how many texts over the static tree the
// connections share.
const churnSharedTexts = 8

func (r *churnRegion) generator(shared []op) func() op {
	n, reads, ownReads, sharedReads, writeAt := 0, 0, 0, 0, 0
	return func() op {
		i := n % 10
		n++
		if i == 0 {
			// Where in the round the write falls is drawn anew each round,
			// so the connections cannot settle into one relative phase for
			// a whole run: every run averages over all of them.
			writeAt, reads = r.rng.Intn(10), 0
		}
		if i == writeAt {
			return r.write()
		}
		reads++
		if reads%3 == 0 {
			sharedReads++
			return shared[sharedReads%len(shared)]
		}
		ownReads++
		return r.ownText(ownReads % churnOwnTexts)
	}
}

func (r *churnRegion) write() op {
	kind := churnWrites[r.writes%len(churnWrites)]
	r.writes++
	switch kind {
	case 'C':
		r.audits++
		return op{verb: verbLoad, text: fmt.Sprintf("audit(%s, %d).", strings.TrimSuffix(r.prefix, "_"), r.audits)}
	case 'R':
		leaf := r.live[0]
		r.live = r.live[1:]
		r.free = append(r.free, leaf)
		parent := treeNode(r.prefix, leaf)
		n := len(r.g[parent])
		delete(r.g, parent)
		return op{verb: verbRetract, text: "parent(" + parent + ", X)", want: answer{rows: n}}
	}
	k := churnFamily[r.families%len(churnFamily)]
	r.families++
	at := r.rng.Intn(len(r.free))
	leaf := r.free[at]
	r.free = append(r.free[:at], r.free[at+1:]...)
	r.live = append(r.live, leaf)
	family := make([]edge, k)
	for i := range family {
		r.fresh++
		family[i] = edge{treeNode(r.prefix, leaf), fmt.Sprintf("%sn%d", r.prefix, r.fresh)}
		r.g.add(family[i])
	}
	return op{verb: verbLoad, text: factsSrc("parent", family)}
}
