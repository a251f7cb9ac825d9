//go:build race

package ingestlog

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
