//go:build !race

package rtlib

const raceEnabled = false
