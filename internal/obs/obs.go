// Package obs is the observability layer of the serving stack: an
// allocation-free tracing substrate that stamps every tweet with a span at
// ingest, records per-stage timings (queue wait → extract → classify →
// userstate observe → verdict fan-out → SSE emit, plus the cluster
// driver's executor round trips) into per-shard lock-free ring buffers,
// keeps reservoir-sampled exemplars per shard, and captures the full stage
// breakdown of any span that exceeds a configurable latency budget
// ("slow verdicts").
//
// The package exists because the pipeline's hot paths are zero-alloc
// (feature extraction, userstate Observe, the cluster share loop) and the
// only visibility into them so far was aggregate counters: no way to
// answer "why was this verdict slow?". The design constraint is therefore
// that tracing must not break the 0 allocs/op invariant:
//
//   - spans are pooled per shard (sync.Pool), never escaping to the heap
//     on the steady state;
//   - ring entries are fixed-size and encoded into a slab of
//     atomic.Uint64 words, so the single-producer shard goroutine appends
//     lock-free while /v1/trace readers snapshot concurrently without a
//     mutex (the producer advances a claim word before it overwrites a
//     slot, and a reader drops every entry copied from a slot the claim
//     had reached by the end of its copy);
//   - the slow ring is multi-producer (any shard can capture) and uses a
//     per-slot sequence word so a torn read is detected and dropped
//     instead of served.
//
// A nil *Tracer is valid and free: every method on a nil tracer or nil
// span is a no-op, so disabled tracing costs one predictable branch.
package obs

import (
	"cmp"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"redhanded/internal/metrics"
)

// Stage identifies one step of a tweet's (or micro-batch's) journey.
type Stage uint8

// The span stages, in pipeline order. The serving path uses Queue through
// Emit; the cluster driver uses ExecutorRTT/ExecutorCompute/Merge for its
// per-batch spans. ExecutorRTT runs from dispatch until every share's
// response has been decoded and checked; ExecutorCompute is the
// executor-reported share compute time, a subset of it — the difference is
// wire, queueing and decode cost.
const (
	StageQueue           Stage = iota // shard queue wait (ingest → shard loop)
	StageCache                        // extraction-cache lookup
	StageExtract                      // feature extraction (cache miss only) + normalizer fold and scaling (every tweet)
	StageClassify                     // snapshot predict; labeled tweets: also train + prequential record
	StageObserve                      // userstate Observe fold
	StageVerdict                      // session/escalation fan-out + alerting
	StageEmit                         // alert and verdict sinks (SSE hub publish; excluded from Verdict)
	StageExecutorRTT                  // cluster: share round trips through response decode, wall time
	StageExecutorCompute              // cluster: executor-reported share compute (⊆ RTT)
	StageMerge                        // cluster: statistics + accumulator merge, AbsorbBatch
	StageCompile                      // compiled-snapshot rebuild after a model mutation
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "cache", "extract", "classify", "observe", "verdict", "emit",
	"executor_rtt", "executor_compute", "merge", "compile",
}

// stageBuckets extends the registry's default latency buckets down to 1µs:
// pipeline stages (extract ~5µs, classify ~10µs) would otherwise all land
// in one bucket and quantiles would read as its interpolated midpoint. The
// extra low buckets cost a few scan steps on Observe — still branch-free
// of allocation, and hot stages hit the early bounds first.
var stageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 1,
}

// String returns the stage's wire name (used in JSON payloads and as the
// stage label on the per-stage histograms).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Config configures a Tracer.
type Config struct {
	// Shards is the number of independent single-producer rings (one per
	// pipeline shard; the cluster driver uses 1). Default 1.
	Shards int
	// SlowBudget is the end-to-end latency above which a span is captured
	// with its full stage breakdown in the slow ring (default 25ms;
	// negative disables slow capture).
	SlowBudget time.Duration
	// Registry receives the per-stage latency histograms
	// (redhanded_trace_stage_seconds{stage=...}) and the span total
	// histogram. Nil skips histogram registration.
	Registry *metrics.Registry

	// ringSize, slowCap, exemplars and seed replace the constants below
	// when non-zero; only in-package tests set them.
	ringSize, slowCap, exemplars int
	seed                         uint64
}

// The tracer's fixed sizes: each shard's ring holds ringEntries entries
// and its reservoir reservoirSize exemplars, the slow ring holds
// slowCaptures; reservoirSeed makes exemplar selection deterministic for
// a given finish sequence.
const (
	ringEntries   = 512
	slowCaptures  = 64
	reservoirSize = 8
	reservoirSeed = 1
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SlowBudget == 0 {
		c.SlowBudget = 25 * time.Millisecond
	}
	c.ringSize = cmp.Or(c.ringSize, ringEntries)
	c.slowCap = cmp.Or(c.slowCap, slowCaptures)
	c.exemplars = cmp.Or(c.exemplars, reservoirSize)
	c.seed = cmp.Or(c.seed, reservoirSeed)
	return c
}

// shardState is one shard's tracing lane: a pooled span slot, a
// single-producer ring, and a reservoir of exemplar entries.
type shardState struct {
	pool      sync.Pool // *Span
	ring      *ring
	reservoir *reservoir
}

// Tracer owns the per-shard rings, the slow ring, and the stage
// histograms. A nil *Tracer is valid: Begin returns a nil span and every
// other method is a no-op.
type Tracer struct {
	cfg       Config
	epoch     time.Time // monotonic base for all span clocks
	epochUnix int64     // wall nanos at epoch, for entry start timestamps
	shards    []shardState
	slow      *slowRing
	nextID    atomic.Uint64
	spans     atomic.Int64 // finished spans
	slowSpans atomic.Int64 // spans over budget

	stageHist [NumStages]*metrics.Histogram
	totalHist *metrics.Histogram
}

// New builds a tracer. Callers that trace nothing hold a nil *Tracer,
// the universal "tracing off" value.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		cfg:    cfg,
		epoch:  time.Now(),
		slow:   newSlowRing(cfg.slowCap),
		shards: make([]shardState, cfg.Shards),
	}
	t.epochUnix = t.epoch.UnixNano()
	for i := range t.shards {
		t.shards[i].ring = newRing(cfg.ringSize)
		t.shards[i].reservoir = newReservoir(cfg.exemplars, cfg.seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	if cfg.Registry != nil {
		for s := Stage(0); s < NumStages; s++ {
			t.stageHist[s] = cfg.Registry.Histogram("redhanded_trace_stage_seconds",
				"Per-stage span latency recorded by the tracing layer.",
				stageBuckets, metrics.Labels{"stage": s.String()})
		}
		t.totalHist = cfg.Registry.Histogram("redhanded_trace_span_seconds",
			"End-to-end span latency (ingest through verdict fan-out).", stageBuckets, nil)
	}
	return t
}

// now returns nanoseconds since the tracer epoch on the monotonic clock.
//
//redvet:noalloc gate=SpanLifecycle
func (t *Tracer) now() int64 {
	//redvet:ignore hotpathhygiene this IS the span timebase: one monotonic clock read per stage boundary is the cost being measured, and time.Since of a monotonic epoch never allocates
	return int64(time.Since(t.epoch))
}

// Begin starts a span on the given shard's lane, drawing the span from the
// shard's pool. The span starts with StageQueue already open (reusing
// Begin's clock read): the first thing that happens to a traced tweet is
// waiting for its shard. Callers whose first stage differs simply call
// BeginStage immediately. A nil tracer (tracing disabled) returns a nil
// span, on which every method is a no-op.
//
//redvet:noalloc gate=SpanLifecycle
func (t *Tracer) Begin(shard int) *Span {
	if t == nil {
		return nil
	}
	if shard < 0 || shard >= len(t.shards) {
		shard = 0
	}
	st := &t.shards[shard]
	sp, _ := st.pool.Get().(*Span)
	if sp == nil {
		//redvet:ignore noalloc pool-miss warmup path; the steady state recycles spans through the shard pool and BenchmarkSpanLifecycle proves 0 allocs/op
		sp = new(Span)
	}
	*sp = Span{
		tracer:  t,
		shard:   uint8(shard),
		traceID: t.nextID.Add(1),
		start:   t.now(),
	}
	sp.curStart = sp.start
	sp.cur = StageQueue
	sp.open = true
	return sp
}

// Abort discards a span without recording it (e.g. a tweet rejected by
// backpressure before reaching its shard), returning it to the pool.
//
//redvet:noalloc gate=SpanLifecycle
func (t *Tracer) Abort(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.shards[sp.shard].pool.Put(sp)
}

// finish records a completed span: ring entry, histograms, reservoir
// offer, slow capture — then recycles the span. The entry is encoded once
// into a stack buffer and copied word-wise into each destination.
//
//redvet:noalloc gate=SpanLifecycle
func (t *Tracer) finish(sp *Span) {
	end := t.now()
	if sp.open {
		sp.dur[sp.cur] += end - sp.curStart
		sp.open = false
	}
	total := end - sp.start
	if total < 0 {
		total = 0
	}
	slow := t.cfg.SlowBudget > 0 && total > int64(t.cfg.SlowBudget)

	var w [entryWords]uint64
	encodeEntry(&w, sp, t.epochUnix, total, slow)

	st := &t.shards[sp.shard]
	st.ring.append(&w)
	st.reservoir.offer(&w)
	if slow {
		t.slow.append(&w)
		t.slowSpans.Add(1)
	}
	t.spans.Add(1)

	if t.totalHist != nil {
		t.totalHist.Observe(float64(total) / 1e9)
		for s := Stage(0); s < NumStages; s++ {
			if d := sp.dur[s]; d > 0 {
				t.stageHist[s].Observe(float64(d) / 1e9)
			}
		}
	}
	st.pool.Put(sp)
}

// Spans returns the number of finished spans.
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// SlowSpans returns the number of spans that exceeded the slow budget.
func (t *Tracer) SlowSpans() int64 {
	if t == nil {
		return 0
	}
	return t.slowSpans.Load()
}

// Budget returns the configured slow budget (0 for a nil tracer).
func (t *Tracer) Budget() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowBudget
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
