// Package hotpath seeds hygiene violations: wall-clock reads, fmt
// formatting, map iteration, and per-event metrics-registry lookups
// inside a noalloc region, plus the package-wide atomic-copy rules.
package hotpath

import (
	"fmt"
	"sync/atomic"
	"time"

	"redhanded/internal/analysis/testdata/src/hotpath/metrics"
)

type tracer struct {
	reg   *metrics.Registry
	hits  *metrics.Counter
	seen  map[string]int
	count atomic.Int64
}

func newTracer(reg *metrics.Registry) *tracer {
	// Construction time: registry lookups and map allocation are legal.
	return &tracer{reg: reg, hits: reg.Counter("hits"), seen: make(map[string]int)}
}

//redvet:noalloc
func hot(t *tracer, name string) {
	now := time.Now() // want "time.Now in a hot path"
	_ = now
	s := fmt.Sprintf("%q", name) // want "fmt.Sprintf in a hot path"
	_ = s
	for k := range t.seen { // want "map iteration in a hot path"
		_ = k
	}
	t.reg.Counter(name).Add(1) // want "metrics registry lookup"
	t.reg.Collect(name, nil)   // want "metrics registry lookup \(Collect\)"
	t.hits.Add(1)              // pre-resolved handle: legal
	t.count.Add(1)             // method call on the atomic: legal
}

//redvet:noalloc
func noisy(x int) {
	println(x) // want "print/println in a hot path"
}

func copyAtomic(t *tracer) int64 {
	c := t.count // want "copies a sync/atomic value"
	ptr := &t.count
	_ = ptr
	return c.Load()
}

func byValue(c atomic.Int64) int64 { return c.Load() } // want "passed by value forks the counter"

func byPointer(c *atomic.Int64) int64 { return c.Load() }
