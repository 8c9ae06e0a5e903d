//go:build race

package db

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation pins hold only without it.
const raceEnabled = true
