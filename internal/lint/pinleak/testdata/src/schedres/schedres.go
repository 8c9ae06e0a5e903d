// Scheduler-resource fixtures: a task group carries the same
// must-release obligation as a pin.
package schedres

import "sched"

func goodGroup(p *sched.Pool) {
	g := p.Group()
	g.Go(func() {})
	g.Wait()
}

func badGroup(p *sched.Pool, cond bool) {
	g := p.Group() // want "not released on the path"
	g.Go(func() {})
	if cond {
		return // un-waited group leaves its queued tasks unrun
	}
	g.Wait()
}

func discardedGroup(p *sched.Pool) {
	p.Group() // want "discarded without Group.Wait"
}
