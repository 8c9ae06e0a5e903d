// Package sched is a fixture stub for the real internal/sched package.
package sched

type Pool struct{}

func (p *Pool) Group() *Group { return &Group{} }

type Group struct{}

func (g *Group) Go(fn func()) {}
func (g *Group) Wait()        {}
