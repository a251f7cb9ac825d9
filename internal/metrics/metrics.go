// Package metrics is a small, dependency-free metrics registry for the
// serving subsystem: atomic counters and gauges, fixed-bucket latency
// histograms, and Prometheus text-format exposition (format 0.0.4). It
// exists so the hot paths (engine loops, alerting, HTTP serving) can be
// observed in production without pulling a client library into the module.
//
// Collectors are registered on a Registry under a family name plus an
// optional constant label set. Registration is idempotent: asking for the
// same (name, labels) series again returns the collector created the first
// time, so package-level wiring (e.g. the alerting counter shared by every
// Pipeline) needs no coordination.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a constant label set attached to one series at registration
// time. Keys are rendered sorted, so two Labels with the same contents
// always address the same series.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations (typically
// latencies in seconds). Observations are lock-free: each bucket is an
// independent atomic counter and the sum is a CAS loop over float64 bits.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets covers sub-millisecond pipeline latencies through multi-second
// stalls — the range the classify hot path actually spans.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~15) and the early buckets are
	// the hot ones for latency data, so this beats a binary search.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an estimate of quantile q (0..1) assuming observations
// are uniform within buckets; the overflow bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(seen+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) { // overflow bucket has no upper bound
				return lo
			}
			hi := h.bounds[i]
			frac := (rank - float64(seen)) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// series is one exposed line group (a collector plus its label string).
type series struct {
	labels string
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups all series registered under one metric name.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	order  []string
	series map[string]*series
}

// Registry holds metric families and renders them in text format.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the library's built-in
// instrumentation (engine throughput, alert counts) registers on.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s already registered as %s, requested %s", name, f.typ, typ))
	}
	return f
}

func (f *family) get(labels string) (*series, bool) {
	s, ok := f.series[labels]
	if !ok {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s, ok
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "counter").get(labels.render())
	if !ok {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "gauge").get(labels.render())
	if !ok {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is sampled from fn at exposition
// time (e.g. a live queue depth). Re-registering the same series replaces
// the function, so a restarted server takes over its series cleanly.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.family(name, help, "gauge").get(labels.render())
	s.fn = fn
}

// Histogram registers (or returns the existing) histogram series with the
// given ascending bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "histogram").get(labels.render())
	if !ok {
		s.h = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Int64, len(buckets)+1),
		}
	}
	return s.h
}

// WriteText renders the registry in Prometheus text exposition format.
// Series values (including GaugeFunc callbacks) are read after the
// registry lock is released, so a callback may safely touch the registry.
func (r *Registry) WriteText(w io.Writer) error {
	type snap struct {
		f      *family
		series []*series
	}
	r.mu.Lock()
	snaps := make([]snap, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		ss := make([]*series, 0, len(f.order))
		for _, key := range f.order {
			ss = append(ss, f.series[key])
		}
		snaps = append(snaps, snap{f: f, series: ss})
	}
	r.mu.Unlock()
	for _, sn := range snaps {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", sn.f.name, sn.f.help, sn.f.name, sn.f.typ); err != nil {
			return err
		}
		for _, s := range sn.series {
			if err := s.write(w, sn.f.name); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) write(w io.Writer, name string) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.c.Value())
		return err
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.fn()))
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.g.Value())
		return err
	case s.h != nil:
		return s.writeHistogram(w, name)
	}
	return nil
}

func (s *series) writeHistogram(w io.Writer, name string) error {
	h := s.h
	// Bucket lines carry the cumulative count; the inner labels (if any)
	// are merged with the le label.
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		lbl := fmt.Sprintf("le=%q", le)
		if inner != "" {
			lbl = inner + "," + lbl
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, lbl, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	return err
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
