//go:build race

package catalog

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation pins hold only without it.
const raceEnabled = true
