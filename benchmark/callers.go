package main

import (
	"fmt"
	"time"

	"dkbms"
	"dkbms/internal/client"
	"dkbms/internal/codegen"
	"dkbms/internal/core"
	"dkbms/internal/dlog"
	"dkbms/internal/rel"
	"dkbms/internal/rtlib"
	"dkbms/internal/stored"
	"dkbms/internal/wire"
)

// Span names: the layer call each one brackets.
const (
	spanOp        = "op"
	spanParse     = "dlog.parse"
	spanCompile   = "core.compile"
	spanEvaluate  = "rtlib.evaluate"
	spanLoadRules = "testbed.load"
	spanUpdate    = "stored.update"
	spanRoundTrip = "client.roundtrip"
	spanCheck     = "oracle.check"
	spanReplay    = "replay.direct"
)

// layerTimes is what one caller's traced operations reported about the
// layers below the entry point: the program's own Stats structs, summed,
// and the harness's timings of the calls it made itself.
type layerTimes struct {
	queries, updates int
	parse            time.Duration
	compile          core.CompileStats // summed; RelevantRules summed too
	eval             rtlib.Stats       // summed totals, Nodes unused
	iterations       int64
	derivedTuples    int64
	update           stored.UpdateStats // summed
	// Server workloads.
	wireEncode, wireDecode time.Duration
	wireOps                int
	roundTrips, replays    []time.Duration // of the replayed queries, pairwise
	replayHits             int
	replayHitTime          time.Duration
	// lastProgram is the most recent compiled query program; the
	// statement probes render its statements.
	lastProgram *codegen.Program
}

func (l *layerTimes) merge(o *layerTimes) {
	l.queries += o.queries
	l.updates += o.updates
	l.parse += o.parse
	addCompile(&l.compile, o.compile)
	addEval(&l.eval, o.eval)
	l.iterations += o.iterations
	l.derivedTuples += o.derivedTuples
	addUpdate(&l.update, o.update)
	l.wireEncode += o.wireEncode
	l.wireDecode += o.wireDecode
	l.wireOps += o.wireOps
	l.roundTrips = append(l.roundTrips, o.roundTrips...)
	l.replays = append(l.replays, o.replays...)
	l.replayHits += o.replayHits
	l.replayHitTime += o.replayHitTime
	if l.lastProgram == nil {
		l.lastProgram = o.lastProgram
	}
}

func addCompile(a *core.CompileStats, b core.CompileStats) {
	a.Setup += b.Setup
	a.Extract += b.Extract
	a.ReadDict += b.ReadDict
	a.Rewrite += b.Rewrite
	a.EvalOrder += b.EvalOrder
	a.TypeCheck += b.TypeCheck
	a.CodeGen += b.CodeGen
	a.Total += b.Total
	a.RelevantRules += b.RelevantRules
}

func addEval(a *rtlib.Stats, b rtlib.Stats) {
	a.TempTable += b.TempTable
	a.Eval += b.Eval
	a.TermCheck += b.TermCheck
	a.Elapsed += b.Elapsed
}

func addUpdate(a *stored.UpdateStats, b stored.UpdateStats) {
	a.Extract += b.Extract
	a.TC += b.TC
	a.Store += b.Store
	a.Total += b.Total
	a.NewRules += b.NewRules
	a.TCEdges += b.TCEdges
}

func (l *layerTimes) addResult(res *dkbms.QueryResult) {
	addCompile(&l.compile, res.Compile)
	addEval(&l.eval, res.Eval)
	l.iterations += res.Iterations()
	for _, n := range res.Eval.Nodes {
		l.derivedTuples += int64(n.Tuples)
	}
}

// localCaller is the single caller of an in-process Testbed.
type localCaller struct {
	tb     *dkbms.Testbed
	gen    func() op
	layers layerTimes
}

func (c *localCaller) next() op { return c.gen() }

func (c *localCaller) traced() *layerTimes { return &c.layers }

// probe has nothing to add: doTraced already made every layer call.
func (c *localCaller) probe(op, reply, *tracer) error { return nil }

func (c *localCaller) do(o op) (reply, error) {
	switch o.verb {
	case verbQuery:
		res, err := c.tb.Query(o.text, nil)
		if err != nil {
			return reply{}, err
		}
		return reply{rows: res.Rows}, nil
	case verbRules:
		if err := c.tb.Load(o.text); err != nil {
			return reply{}, err
		}
		st, err := c.tb.Update()
		return reply{n: st.NewRules}, err
	}
	return reply{}, fmt.Errorf("local caller: unexpected verb %d", o.verb)
}

// doTraced makes the calls Testbed.Query and Testbed.Update make,
// one layer at a time.
func (c *localCaller) doTraced(o op, tr *tracer, parent int32) (reply, error) {
	switch o.verb {
	case verbQuery:
		c.layers.queries++
		s := tr.begin(spanParse, parent)
		q, err := dlog.ParseQuery(o.text)
		c.layers.parse += tr.end(s)
		if err != nil {
			return reply{}, err
		}
		s = tr.begin(spanCompile, parent)
		compiled, err := c.tb.Compile(q, nil)
		tr.end(s)
		if err != nil {
			return reply{}, err
		}
		c.layers.lastProgram = compiled.Program
		s = tr.begin(spanEvaluate, parent)
		res, err := c.tb.Evaluate(compiled, nil)
		tr.end(s)
		if err != nil {
			return reply{}, err
		}
		c.layers.addResult(res)
		return reply{rows: res.Rows}, nil
	case verbRules:
		c.layers.updates++
		s := tr.begin(spanLoadRules, parent)
		err := c.tb.Load(o.text)
		tr.end(s)
		if err != nil {
			return reply{}, err
		}
		s = tr.begin(spanUpdate, parent)
		st, err := c.tb.Update()
		tr.end(s)
		addUpdate(&c.layers.update, st)
		return reply{n: st.NewRules}, err
	}
	return reply{}, fmt.Errorf("local caller: unexpected verb %d", o.verb)
}

// serverCaller is one connection to the in-process dkbd server.
type serverCaller struct {
	cl     *client.Client
	ctb    *dkbms.ConcurrentTestbed // for direct replay in traced runs
	gen    func() op
	layers layerTimes
	// lastRoundTrip is the duration of the latest traced round trip.
	lastRoundTrip time.Duration
}

func (c *serverCaller) next() op { return c.gen() }

func (c *serverCaller) traced() *layerTimes { return &c.layers }

func (c *serverCaller) do(o op) (reply, error) {
	switch o.verb {
	case verbQuery:
		res, err := c.cl.Query(o.text, wire.QueryOpts{})
		if err != nil {
			return reply{}, err
		}
		return reply{rows: res.Rows}, nil
	case verbLoad:
		return reply{}, c.cl.Load(o.text)
	case verbRetract:
		n, err := c.cl.Retract(o.text)
		return reply{n: int(n)}, err
	}
	return reply{}, fmt.Errorf("server caller: unexpected verb %d", o.verb)
}

// doTraced times the client round trip; the program is not opened up.
func (c *serverCaller) doTraced(o op, tr *tracer, parent int32) (reply, error) {
	if o.isQuery() {
		c.layers.queries++
	} else {
		c.layers.updates++
	}
	s := tr.begin(spanRoundTrip, parent)
	r, err := c.do(o)
	c.lastRoundTrip = tr.end(s)
	return r, err
}

// probe measures, outside the operation's span, what the harness cannot
// see inside a round trip: the codec on the operation's real messages,
// and — for a query no write changes — the same text replayed directly
// on the ConcurrentTestbed. Round trip minus replay is what client,
// wire and session cost; the replay's own stats say what the engine did.
func (c *serverCaller) probe(o op, r reply, tr *tracer) error {
	if !o.isQuery() {
		return nil
	}
	c.probeCodec(o.text, r.rows)
	if !o.static {
		return nil
	}
	s := tr.begin(spanReplay, -1)
	direct, err := c.ctb.Query(o.text, nil)
	d := tr.end(s)
	if err != nil {
		return fmt.Errorf("direct replay of %s: %w", o.text, err)
	}
	c.layers.roundTrips = append(c.layers.roundTrips, c.lastRoundTrip)
	c.layers.replays = append(c.layers.replays, d)
	switch direct.Cache {
	case "result", "maintained":
		// A hit carries the stats of the evaluation that was memoized,
		// not of work done now.
		c.layers.replayHits++
		c.layers.replayHitTime += d
	default:
		c.layers.addResult(direct)
	}
	return nil
}

// probeCodec times the wire codec on one query's real request and
// reply.
func (c *serverCaller) probeCodec(text string, rows []rel.Tuple) {
	t0 := time.Now()
	req := wire.Query{Src: text}.Encode()
	reply := wire.Result{Rows: rows}.Encode()
	t1 := time.Now()
	_, err1 := wire.DecodeQuery(req)
	_, err2 := wire.DecodeResult(reply)
	t2 := time.Now()
	if err1 != nil || err2 != nil {
		return // the round trip already decoded these; a failure here is not the run's
	}
	c.layers.wireEncode += t1.Sub(t0)
	c.layers.wireDecode += t2.Sub(t1)
	c.layers.wireOps++
}
