//go:build !race

package stream

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates inside sync.Pool, so the zero-allocation
// assertions only hold without it.
const raceEnabled = false
