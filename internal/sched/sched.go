// Package sched is the bounded evaluation scheduler: a fixed-size
// worker pool shared by every session of a server process, onto which
// the run-time library (internal/rtlib) submits its parallel work:
// whole evaluation-order nodes of the stratum wavefront, independent
// cliques evaluated concurrently.
//
// The paper's conclusion 7a observes that "during each iteration, the
// right hand side of each recursive equation may be evaluated in
// parallel"; the naive realization (one goroutine per rule SQL) means N
// sessions × M rules goroutines, unbounded. The pool caps evaluation
// concurrency at a fixed worker count regardless of session count, and
// keeps admission fair:
//
//   - every evaluation registers a Client; each Client owns a FIFO of
//     pending tasks;
//   - workers scan the clients round-robin, taking at most one task per
//     client per visit, so a program queueing many independent cliques
//     cannot starve a point query that queued two;
//   - waiting is working: Group.Wait executes its own group's unstarted
//     tasks inline ("help-first" stealing). A task that fans out nested
//     subtasks therefore never deadlocks the pool — even a pool of one
//     worker makes progress, because every waiter drains itself.
//
// Tasks must run to completion without blocking on other *queued* tasks
// (blocking on a nested Group is fine — its Wait self-helps). The
// engine's evaluation jobs are plain SELECT/INSERT work and satisfy
// this by construction.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of evaluation workers. The zero value is not
// usable; construct with NewPool.
type Pool struct {
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	clients []*Client // admission ring, scanned round-robin
	cursor  int       // next ring slot to scan
	queued  int       // tickets across all client queues
	closed  bool
	wg      sync.WaitGroup

	submitted atomic.Int64
	completed atomic.Int64
	stolen    atomic.Int64
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Workers is the fixed pool size.
	Workers int
	// Clients is the number of registered evaluations.
	Clients int
	// Queued counts tasks admitted but not yet started.
	Queued int
	// Submitted, Completed count tasks over the pool's lifetime.
	Submitted int64
	Completed int64
	// Stolen counts tasks a waiter reclaimed and ran inline instead of
	// a pool worker (help-first stealing).
	Stolen int64
}

// NewPool starts a pool of n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i) //dkblint:bounded one worker per pool slot; n is the bound itself
	}
	return p
}

// Workers returns the fixed pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	clients, queued := len(p.clients), p.queued
	p.mu.Unlock()
	return Stats{
		Workers:   p.workers,
		Clients:   clients,
		Queued:    queued,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Stolen:    p.stolen.Load(),
	}
}

// Close stops the workers. Queued tasks are not abandoned: their
// groups' Wait calls run them inline. Safe to call once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker is one pool goroutine: take the next admitted ticket, run one
// task of its group, repeat until Close.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		g := p.next()
		if g == nil {
			return
		}
		// The ticket may be stale: Wait may have already reclaimed the
		// task it announced. That is the cheap side of help-first
		// stealing — a no-op pop, not a lost task.
		if fn := g.take(); fn != nil {
			fn(id)
			g.finish()
			p.completed.Add(1)
		}
	}
}

// next blocks until a ticket is available (nil on Close), scanning the
// client ring round-robin from the cursor: one ticket per client per
// visit keeps admission fair across evaluations.
func (p *Pool) next() *Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		if n := len(p.clients); n > 0 && p.queued > 0 {
			for i := 0; i < n; i++ {
				c := p.clients[(p.cursor+i)%n]
				if len(c.q) > 0 {
					g := c.q[0]
					c.q = c.q[1:]
					p.queued--
					p.cursor = (p.cursor + i + 1) % n
					return g
				}
			}
		}
		p.cond.Wait()
	}
}

// NewClient registers an evaluation with the pool. Close it when the
// evaluation finishes.
func (p *Pool) NewClient() *Client {
	c := &Client{p: p}
	p.mu.Lock()
	if !p.closed {
		p.clients = append(p.clients, c)
	} else {
		c.closed = true // tasks still complete, inline via Wait
	}
	p.mu.Unlock()
	return c
}

// Client is one evaluation's admission handle: a FIFO of its pending
// tasks, scanned fairly against every other client's.
type Client struct {
	p        *Pool
	q        []*Group // tickets, one per submitted task
	closed   bool     // guarded by p.mu
	admitted atomic.Int64
}

// Admitted counts tasks this client has submitted to the pool.
func (c *Client) Admitted() int64 { return c.admitted.Load() }

// Close deregisters the client. Call only after every Group's Wait has
// returned; remaining tickets are stale by then and are dropped.
func (c *Client) Close() {
	p := c.p
	p.mu.Lock()
	if !c.closed {
		c.closed = true
		for i, cl := range p.clients {
			if cl == c {
				p.clients = append(p.clients[:i], p.clients[i+1:]...)
				break
			}
		}
		p.queued -= len(c.q)
		c.q = nil
	}
	p.mu.Unlock()
}

// enqueue admits one ticket for g, waking a worker. When the client or
// pool is closed the ticket is dropped — the task still runs, inline in
// Group.Wait.
func (c *Client) enqueue(g *Group) {
	p := c.p
	p.mu.Lock()
	if !c.closed && !p.closed {
		c.q = append(c.q, g)
		p.queued++
	}
	p.mu.Unlock()
	p.cond.Signal()
	p.submitted.Add(1)
	c.admitted.Add(1)
}

// Group collects a batch of tasks forked by one caller (errgroup
// shape, minus the error plumbing — evaluation tasks record errors in
// caller-owned slots).
type Group struct {
	c    *Client
	mu   sync.Mutex
	cond *sync.Cond
	// pending holds forked-but-unstarted tasks; open counts forked-but-
	// unfinished ones.
	pending []func(worker int)
	open    int
}

// Group creates an empty task group on this client.
func (c *Client) Group() *Group {
	g := &Group{c: c}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Go forks one task. fn's argument is the pool worker index that ran
// it, or -1 when a waiter ran it inline.
func (g *Group) Go(fn func(worker int)) {
	g.mu.Lock()
	g.pending = append(g.pending, fn)
	g.open++
	g.mu.Unlock()
	g.cond.Broadcast() // a concurrent Wait can steal it
	g.c.enqueue(g)
}

// take pops one unstarted task (nil if none).
func (g *Group) take() func(worker int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.takeLocked()
}

func (g *Group) takeLocked() func(worker int) {
	if len(g.pending) == 0 {
		return nil
	}
	fn := g.pending[0]
	g.pending = g.pending[1:]
	return fn
}

// finish marks one task complete.
func (g *Group) finish() {
	g.mu.Lock()
	g.open--
	if g.open == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Wait blocks until every forked task has finished — by working, not
// idling: any task no worker has started yet is reclaimed and run
// inline on the calling goroutine. This is what makes nested fan-out
// (a task that forks and waits on a group of its own) deadlock-free at
// any pool size.
func (g *Group) Wait() {
	g.mu.Lock()
	for {
		if fn := g.takeLocked(); fn != nil {
			g.mu.Unlock()
			g.c.p.stolen.Add(1)
			fn(-1)
			g.c.p.completed.Add(1)
			g.finish()
			g.mu.Lock()
			continue
		}
		if g.open == 0 {
			break
		}
		g.cond.Wait()
	}
	g.mu.Unlock()
}
