//go:build race

package userstate

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
