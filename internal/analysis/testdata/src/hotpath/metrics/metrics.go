// Package metrics mirrors the repo's metrics registry shape (a Registry
// type in a package whose path ends in "metrics") so the hygiene check's
// per-event-lookup rule can be exercised from the fixture.
package metrics

type Counter struct{ n int64 }

func (c *Counter) Add(d int64) { c.n += d }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { _ = name; return &Counter{} }

type Writer struct{}

func (r *Registry) Collect(key string, fn func(*Writer)) { _, _ = key, fn }
