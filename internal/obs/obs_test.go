package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"redhanded/internal/metrics"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if got := tr.Begin(3); got != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", got)
	}
	if tr.Spans() != 0 || tr.SlowSpans() != 0 {
		t.Fatal("nil tracer counters should be zero")
	}
	sum := tr.Snapshot()
	if sum.Enabled {
		t.Fatal("nil tracer Snapshot should report disabled")
	}
	slow := tr.SlowTraces()
	if slow.Enabled {
		t.Fatal("nil tracer SlowTraces should report disabled")
	}

	var sp *Span
	sp.SetID("x")
	sp.BeginStage(StageExtract)
	sp.EndStage()
	sp.Add(StageMerge, time.Second)
	sp.AddExclusive(StageEmit, time.Second)
	if sp.StageDur(StageExtract) != 0 {
		t.Fatal("nil span accessors should be zero")
	}
	sp.Finish()
}

func TestSpanLifecycleAndStageAccounting(t *testing.T) {
	tr := New(Config{Shards: 2, SlowBudget: time.Nanosecond})
	sp := tr.Begin(1)
	if sp == nil {
		t.Fatal("Begin returned nil on enabled tracer")
	}
	if sp.traceID == 0 {
		t.Fatal("span should get a non-zero trace ID")
	}
	sp.SetID("tweet-42")
	sp.BeginStage(StageQueue)
	sp.BeginStage(StageQueue) // same-stage reopen must not reset accounting
	time.Sleep(time.Millisecond)
	sp.BeginStage(StageExtract)
	time.Sleep(time.Millisecond)
	sp.BeginStage(StageVerdict)
	sp.AddExclusive(StageEmit, 500*time.Microsecond)
	sp.Add(StageExecutorCompute, 250*time.Microsecond)
	sp.EndStage()
	if sp.StageDur(StageQueue) < time.Millisecond {
		t.Fatalf("queue stage %v, want >= 1ms", sp.StageDur(StageQueue))
	}
	if sp.StageDur(StageExtract) < time.Millisecond {
		t.Fatalf("extract stage %v, want >= 1ms", sp.StageDur(StageExtract))
	}
	if sp.StageDur(StageEmit) != 500*time.Microsecond {
		t.Fatalf("emit stage %v, want 500µs", sp.StageDur(StageEmit))
	}
	sp.Finish()

	if tr.Spans() != 1 {
		t.Fatalf("Spans = %d, want 1", tr.Spans())
	}
	rep := tr.SlowTraces()
	if !rep.Enabled || len(rep.Traces) != 1 {
		t.Fatalf("SlowTraces = %+v, want 1 capture", rep)
	}
	e := rep.Traces[0]
	if e.ID != "tweet-42" || e.Shard != 1 {
		t.Fatalf("entry = %+v, want id tweet-42 on shard 1", e)
	}
	stages := map[string]int64{}
	for _, s := range e.Stages {
		stages[s.Stage] = s.Nanos
	}
	if stages["queue"] < int64(time.Millisecond) || stages["extract"] < int64(time.Millisecond) {
		t.Fatalf("stage breakdown missing queue/extract time: %v", stages)
	}
	if stages["emit"] != int64(500*time.Microsecond) {
		t.Fatalf("emit = %d, want 500µs", stages["emit"])
	}
	if stages["executor_compute"] != int64(250*time.Microsecond) {
		t.Fatalf("executor_compute = %d, want 250µs", stages["executor_compute"])
	}
	if e.TotalNanos < stages["queue"]+stages["extract"] {
		t.Fatalf("total %d smaller than stage sum", e.TotalNanos)
	}
}

// AddExclusive must keep the breakdown disjoint: time attributed to the
// nested stage is carved out of the enclosing open stage.
func TestAddExclusiveKeepsStagesDisjoint(t *testing.T) {
	tr := New(Config{SlowBudget: -1})
	sp := tr.Begin(0)
	sp.BeginStage(StageVerdict)
	time.Sleep(2 * time.Millisecond)
	sp.AddExclusive(StageEmit, 10*time.Millisecond) // pretend emit took 10ms of the wait
	sp.EndStage()
	verdict, emit := sp.StageDur(StageVerdict), sp.StageDur(StageEmit)
	if emit != 10*time.Millisecond {
		t.Fatalf("emit = %v, want 10ms", emit)
	}
	// The 10ms was subtracted from verdict: verdict covers only the 2ms
	// sleep (clamped near zero here since emit > elapsed would go negative
	// only if EndStage ran before curStart; it stays >= some small value).
	if verdict >= 10*time.Millisecond {
		t.Fatalf("verdict = %v still contains the excluded emit time", verdict)
	}
}

func TestSlowCaptureAndHandlers(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{SlowBudget: time.Nanosecond, Registry: reg})
	sp := tr.Begin(0)
	sp.SetID("slowpoke")
	sp.BeginStage(StageClassify)
	time.Sleep(2 * time.Millisecond)
	sp.EndStage()
	sp.Finish()

	// A fast-budget tracer never marks spans slow.
	fast := New(Config{SlowBudget: -1})
	fsp := fast.Begin(0)
	fsp.Finish()
	if fast.SlowSpans() != 0 {
		t.Fatalf("negative budget captured %d slow spans", fast.SlowSpans())
	}

	if tr.SlowSpans() != 1 {
		t.Fatalf("SlowSpans = %d, want 1", tr.SlowSpans())
	}
	rep := tr.SlowTraces()
	if len(rep.Traces) != 1 || rep.Traces[0].ID != "slowpoke" {
		t.Fatalf("SlowTraces = %+v, want slowpoke captured", rep)
	}
	found := false
	for _, s := range rep.Traces[0].Stages {
		if s.Stage == "classify" && s.Nanos >= int64(time.Millisecond) {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow trace missing classify breakdown: %+v", rep.Traces[0].Stages)
	}

	// Histograms got the observations.
	sum := tr.Snapshot()
	if len(sum.Stages) == 0 {
		t.Fatal("Snapshot has no stage stats despite registry histograms")
	}

	// HTTP handlers round-trip as JSON.
	rr := httptest.NewRecorder()
	SlowHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/trace/slow", nil))
	var got SlowReport
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("slow handler JSON: %v", err)
	}
	if !got.Enabled || len(got.Traces) != 1 {
		t.Fatalf("slow handler payload = %+v", got)
	}
	rr = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/trace", nil))
	var gotSum Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &gotSum); err != nil {
		t.Fatalf("trace handler JSON: %v", err)
	}
	if !gotSum.Enabled || gotSum.Spans != 1 {
		t.Fatalf("trace handler payload = %+v", gotSum)
	}
}

// TestRecycledSpanStartsClean: a finished span returns to its shard's
// pool, and the span Begin draws next carries none of its stage times.
func TestRecycledSpanStartsClean(t *testing.T) {
	tr := New(Config{})
	sp := tr.Begin(0)
	sp.Add(StageExtract, time.Millisecond)
	sp.Finish()
	sp2 := tr.Begin(0)
	if sp2.StageDur(StageExtract) != 0 {
		t.Fatal("recycled span kept stale stage durations")
	}
	sp2.Finish()
}

// TestTracerShardLimit: a span keeps its shard in one byte, so 256 shards
// each capture into their own ring, and a tracer with more is refused
// rather than filing shard 299's captures in ring 43, which would then
// have two producers.
func TestTracerShardLimit(t *testing.T) {
	tr := New(Config{Shards: 256, SlowBudget: time.Nanosecond})
	tr.Begin(255).Finish()
	if got := tr.SlowTraces().Traces; len(got) != 1 || got[0].Shard != 255 {
		t.Fatalf("shard 255's capture: %+v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 300 shards")
		}
	}()
	New(Config{Shards: 300, SlowBudget: time.Nanosecond})
}

func TestSetIDTruncates(t *testing.T) {
	tr := New(Config{SlowBudget: time.Nanosecond})
	long := "0123456789012345678901234567890123456789-overflow"
	sp := tr.Begin(0)
	sp.SetID(long)
	sp.Finish()
	got := tr.SlowTraces().Traces[0].ID
	if got != long[:tweetIDBytes] {
		t.Fatalf("ID = %q, want %q", got, long[:tweetIDBytes])
	}
}

// With tracing enabled, a full span lifecycle on the steady state performs
// zero heap allocations, whether or not the span is captured as slow.
func TestSpanLifecycleZeroAllocs(t *testing.T) {
	for _, budget := range []time.Duration{-1, time.Nanosecond} {
		tr := New(Config{Shards: 1, SlowBudget: budget, Registry: metrics.NewRegistry()})
		lifecycle := func() {
			sp := tr.Begin(0)
			sp.SetID("123456789012345678")
			sp.BeginStage(StageQueue)
			sp.BeginStage(StageExtract)
			sp.BeginStage(StageClassify)
			sp.BeginStage(StageObserve)
			sp.BeginStage(StageVerdict)
			sp.AddExclusive(StageEmit, time.Microsecond)
			sp.EndStage()
			sp.Finish()
		}
		for i := 0; i < 8; i++ { // warm the pool and histogram families
			lifecycle()
		}
		if allocs := testing.AllocsPerRun(1000, lifecycle); allocs != 0 {
			t.Fatalf("budget %v: span lifecycle allocates %.1f allocs/op, want 0", budget, allocs)
		}
	}
}

func TestStageStringAndBounds(t *testing.T) {
	if StageQueue.String() != "queue" || StageMerge.String() != "merge" {
		t.Fatal("stage names wrong")
	}
	if Stage(250).String() != "unknown" {
		t.Fatal("out-of-range stage should stringify to unknown")
	}
	// Out-of-range shard clamps to 0 rather than panicking.
	tr := New(Config{Shards: 2})
	sp := tr.Begin(99)
	sp.Finish()
	if tr.Spans() != 1 {
		t.Fatal("out-of-range shard span not recorded")
	}
}
