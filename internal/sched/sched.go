// Package sched is kept for benchmark/ only: benchmark/layers.go reads
// the two counters of Stats. The engine evaluates a program's nodes in
// order on the calling goroutine and has no evaluation pool, so every
// Stats it hands out is the zero value (see benchseam.go in the root
// package).
package sched

// Stats is kept for benchmark/ only. Both counters read 0.
type Stats struct {
	Submitted, Stolen int64
}
