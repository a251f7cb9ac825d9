//go:build race

package twitterdata

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
