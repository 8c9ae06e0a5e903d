package main

import (
	"fmt"
	"io"
	"time"

	"dkbms/internal/obs"
)

// printSlowlog renders the local shell's slow-query ring, slowest first.
// A served D/KB's ring is on dkbd's debug listener (/slowlog).
func printSlowlog(w io.Writer, l *obs.SlowLog) {
	threshold, capacity, recorded, entries := l.Threshold(), l.Capacity(), l.Recorded(), l.Snapshot()
	if threshold > 0 {
		fmt.Fprintf(w, "slow-query log: %d recorded at or above %v (ring of %d)\n",
			recorded, threshold, capacity)
	} else {
		fmt.Fprintf(w, "slow-query log: %d recorded, no threshold (ring of %d)\n",
			recorded, capacity)
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	for i, e := range entries {
		fmt.Fprintf(w, "%3d. %10v  %s\n", i+1, e.Latency.Round(time.Microsecond), e.Query)
		switch {
		case e.Err != "":
			fmt.Fprintf(w, "     error: %s\n", e.Err)
		default:
			line := fmt.Sprintf("     %d rows", e.Rows)
			if e.Iterations > 0 {
				line += fmt.Sprintf(", %d iterations", e.Iterations)
			}
			if e.Cache != "" {
				line += ", cache " + e.Cache
			}
			if e.Session > 0 {
				line += fmt.Sprintf(", session %d", e.Session)
			}
			if e.QueryID != 0 {
				line += ", id " + obs.FormatQueryID(e.QueryID)
			}
			if e.Trace != nil {
				line += ", traced"
			}
			fmt.Fprintln(w, line)
		}
	}
}
