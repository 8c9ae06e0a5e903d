package dkbms

import (
	"dkbms/internal/core"
	"dkbms/internal/dlog"
)

// Prepared is a precompiled query (the paper's §6 precompilation
// conclusion: "for applications involving few updates and frequently
// occurring queries with large R_r values, this price is well worth
// paying"). The compiled program is cached and transparently recompiled
// when a rule-base change invalidates it — committing workspace rules,
// adding workspace rules, or creating a new fact relation (which can
// change the mixed rules/facts normalization).
type Prepared struct {
	tb   *Testbed
	q    dlog.Query
	opts QueryOptions

	compiled *core.Compiled
	gen      uint64
	// Recompiles counts compilations performed (1 after Prepare; grows
	// only when the cache is invalidated).
	Recompiles int
}

// Prepare compiles a query once for repeated execution.
func (tb *Testbed) Prepare(src string, opts *QueryOptions) (*Prepared, error) {
	if tb.closed {
		return nil, ErrClosed
	}
	q, err := dlog.ParseQuery(src)
	if err != nil {
		return nil, parseErr(err)
	}
	if opts == nil {
		opts = &QueryOptions{}
	}
	p := &Prepared{tb: tb, q: q, opts: *opts}
	if err := p.ensure(); err != nil {
		return nil, err
	}
	return p, nil
}

// Run executes the prepared query, recompiling first if the rule base
// changed since the last compilation. Running against a closed testbed
// returns ErrClosed.
func (p *Prepared) Run() (*QueryResult, error) {
	if p.tb.closed {
		return nil, ErrClosed
	}
	if err := p.ensure(); err != nil {
		return nil, err
	}
	return p.tb.Evaluate(p.compiled, &p.opts)
}

// Stale reports whether the cached program would be recompiled by the
// next Run.
func (p *Prepared) Stale() bool {
	return p.compiled == nil || p.gen != p.tb.ruleGen
}

func (p *Prepared) ensure() error {
	if !p.Stale() {
		return nil
	}
	compiled, err := p.tb.Compile(p.q, &p.opts)
	if err != nil {
		return err
	}
	p.compiled = compiled
	p.gen = p.tb.ruleGen
	p.Recompiles++
	return nil
}
