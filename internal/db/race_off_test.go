//go:build !race

package db

const raceEnabled = false
