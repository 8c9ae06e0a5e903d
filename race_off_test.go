//go:build !race

package dkbms

const raceEnabled = false
