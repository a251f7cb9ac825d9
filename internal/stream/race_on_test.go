//go:build race

package stream

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
