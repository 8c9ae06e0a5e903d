// Package sched bounds evaluation concurrency: a worker-less task pool,
// one per testbed, onto which the run-time library (internal/rtlib)
// forks the nodes of its stratum wavefront (independent cliques
// evaluated concurrently).
//
// The paper's conclusion 7a observes that "during each iteration, the
// right hand side of each recursive equation may be evaluated in
// parallel"; the naive realization (one goroutine per rule SQL) means N
// sessions × M rules goroutines, unbounded. The pool caps the forked
// work at a fixed number of slots regardless of session count, and
// keeps no goroutine of its own:
//
//   - Group.Go runs its task on a new goroutine when a slot is free,
//     and otherwise queues it on its group;
//   - a goroutine that finishes a task runs its group's next queued task
//     before it gives the slot back, so a burst keeps its slots busy;
//   - waiting is working: Group.Wait runs its own group's queued tasks
//     inline ("help-first" stealing). An evaluation therefore makes
//     progress on its own work however many slots others hold, and a
//     task that forks and waits on a nested group never deadlocks, even
//     with one slot.
//
// Evaluation goroutines thus number at most the slots plus the callers
// waiting on groups. There is nothing to start or stop: an idle pool is
// a channel of slot numbers.
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

// Pool bounds the forked evaluation tasks of one testbed. The zero
// value is not usable; construct with NewPool.
type Pool struct {
	// slots holds the numbers of the free slots. A task's goroutine
	// takes one and gives it back when its group has nothing queued, so
	// a slot number names one lane of concurrent work (a trace's worker
	// track).
	slots chan int

	submitted atomic.Int64
	completed atomic.Int64
	stolen    atomic.Int64
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Slots is the bound on forked tasks running at once.
	Slots int
	// Running is the number of slots taken.
	Running int
	// Submitted, Completed count tasks over the pool's lifetime.
	Submitted int64
	Completed int64
	// Stolen counts tasks a waiter ran inline because no slot was free
	// when they were forked (help-first stealing).
	Stolen int64
}

// NewPool returns a pool of n slots; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{slots: make(chan int, n)}
	for i := 0; i < n; i++ {
		p.slots <- i
	}
	return p
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Slots:     cap(p.slots),
		Running:   cap(p.slots) - len(p.slots),
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
		Stolen:    p.stolen.Load(),
	}
}

// Group collects a batch of tasks forked by one caller (errgroup
// shape, minus the error plumbing — evaluation tasks record errors in
// caller-owned slots). Every Group must be waited on.
type Group struct {
	p    *Pool
	mu   sync.Mutex
	cond *sync.Cond
	// pending holds forked tasks no slot has taken yet; open counts
	// forked-but-unfinished ones.
	pending []func(slot int)
	open    int
}

// Group creates an empty task group on the pool.
func (p *Pool) Group() *Group {
	g := &Group{p: p}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Go forks one task. fn's argument is the slot that ran it, or -1 when
// a waiter ran it inline.
func (g *Group) Go(fn func(slot int)) {
	g.p.submitted.Add(1)
	g.mu.Lock()
	g.open++
	g.mu.Unlock()
	select {
	case slot := <-g.p.slots:
		go g.run(slot, fn)
	default:
		g.mu.Lock()
		g.pending = append(g.pending, fn)
		g.mu.Unlock()
		g.cond.Broadcast() // a Wait blocked on a running task can take it
	}
}

// run is the goroutine of one slot: it runs fn, then its group's queued
// tasks, and gives the slot back before it marks its last task done, so
// Wait returns only after every slot its group took is free again.
func (g *Group) run(slot int, fn func(slot int)) {
	for {
		fn(slot)
		g.p.completed.Add(1)
		next := g.take()
		if next == nil {
			break
		}
		g.finish()
		fn = next
	}
	g.p.slots <- slot
	g.finish()
}

// take pops one queued task (nil if none).
func (g *Group) take() func(slot int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.takeLocked()
}

func (g *Group) takeLocked() func(slot int) {
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
// idling: any task no slot has taken yet is run inline on the calling
// goroutine. This is what makes nested fan-out (a task that forks and
// waits on a group of its own) deadlock-free at any pool size.
func (g *Group) Wait() {
	g.mu.Lock()
	for {
		if fn := g.takeLocked(); fn != nil {
			g.mu.Unlock()
			g.p.stolen.Add(1)
			fn(-1)
			g.p.completed.Add(1)
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
