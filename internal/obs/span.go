package obs

import "time"

// tweetIDBytes is the fixed space a span reserves for the tweet (or batch)
// identifier; longer IDs are truncated. 40 bytes covers every Twitter
// snowflake ID with room for synthetic "batch-NNN" labels.
const tweetIDBytes = 40

// Span is one traced unit of work: a tweet flowing through a serve shard,
// or a micro-batch flowing through the cluster driver. Spans are pooled
// per shard and reused; they never escape to the heap on the steady state.
//
// A span is owned by one goroutine at a time (the HTTP handler until it is
// enqueued, the shard goroutine afterwards) — its methods are not safe for
// concurrent use. All methods are no-ops on a nil span, so call sites need
// no "is tracing on?" branches.
// Field order is alignment-packed (pointer/word fields, the duration
// table, the ID bytes, then the byte-wide state) so the ~per-shard span
// population carries no padding; the fieldalign check and the
// TestSpanSize pin both enforce it.
//
//redvet:packed
type Span struct {
	tracer   *Tracer
	traceID  uint64
	start    int64 // tracer-epoch nanos
	curStart int64
	dur      [NumStages]int64
	id       [tweetIDBytes]byte
	cur      Stage
	shard    uint8
	idLen    uint8
	open     bool
}

// SetID records the tweet (or batch) identifier carried into ring entries,
// truncated to the fixed entry slot.
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) SetID(id string) {
	if sp == nil {
		return
	}
	n := copy(sp.id[:], id)
	sp.idLen = uint8(n)
}

// BeginStage closes the currently open stage (if any) and opens s, using a
// single clock read for both. Re-opening the stage that is already open is
// a no-op, so adjacent call sites can both claim a stage without
// double-counting.
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) BeginStage(s Stage) {
	if sp == nil {
		return
	}
	if sp.open && sp.cur == s {
		return
	}
	now := sp.tracer.now()
	if sp.open {
		sp.dur[sp.cur] += now - sp.curStart
	}
	sp.cur = s
	sp.curStart = now
	sp.open = true
}

// EndStage closes the currently open stage.
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) EndStage() {
	if sp == nil || !sp.open {
		return
	}
	sp.dur[sp.cur] += sp.tracer.now() - sp.curStart
	sp.open = false
}

// Add attributes d to stage s directly (used for durations measured
// elsewhere, e.g. the executor-reported share compute time).
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) Add(s Stage, d time.Duration) {
	if sp == nil || d <= 0 {
		return
	}
	sp.dur[s] += int64(d)
}

// AddExclusive attributes d to stage s and excludes it from the currently
// open stage by advancing that stage's start, keeping the breakdown
// disjoint. The pipeline uses it to carve a snapshot compile out of the
// stage that paid for it.
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) AddExclusive(s Stage, d time.Duration) {
	if sp == nil || d <= 0 {
		return
	}
	sp.dur[s] += int64(d)
	if sp.open {
		sp.curStart += int64(d)
	}
}

// StageDur returns the accumulated time in stage s (0 for a nil span).
func (sp *Span) StageDur(s Stage) time.Duration {
	if sp == nil {
		return 0
	}
	return time.Duration(sp.dur[s])
}

// Finish closes the span — including the still-open stage, sharing the
// final clock read, so callers need no EndStage first — records it (ring
// entry, histograms, reservoir, slow capture), and returns it to its
// shard's pool. The span must not be used after Finish.
//
//redvet:noalloc gate=SpanLifecycle
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	sp.tracer.finish(sp)
}
