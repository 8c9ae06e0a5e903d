//go:build race

package plan

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation pins hold only without it.
const raceEnabled = true
