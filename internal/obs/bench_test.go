package obs

import (
	"testing"
	"time"

	"redhanded/internal/metrics"
)

// BenchmarkSpanLifecycle measures the per-tweet tracing cost of a span
// within budget: begin, six stage transitions, finish (histograms). This is
// the overhead tracing adds to a pipeline Process call; it must report 0
// allocs/op.
func BenchmarkSpanLifecycle(b *testing.B) {
	tr := New(Config{SlowBudget: -1, Registry: metrics.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(0)
		sp.SetID("123456789012345678")
		sp.BeginStage(StageExtract)
		sp.BeginStage(StageClassify)
		sp.BeginStage(StageObserve)
		sp.BeginStage(StageVerdict)
		sp.AddExclusive(StageEmit, time.Microsecond)
		sp.Finish()
	}
}

// BenchmarkSpanLifecycleDisabled is the same call sequence against a nil
// tracer — the cost when tracing is off (should be a few ns of nil checks).
func BenchmarkSpanLifecycleDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(0)
		sp.SetID("123456789012345678")
		sp.BeginStage(StageExtract)
		sp.BeginStage(StageClassify)
		sp.BeginStage(StageObserve)
		sp.BeginStage(StageVerdict)
		sp.AddExclusive(StageEmit, time.Microsecond)
		sp.Finish()
	}
}

// BenchmarkSlowTraces measures a /v1/trace/slow read: four full capture
// rings copied, checked and merged.
func BenchmarkSlowTraces(b *testing.B) {
	const shards = 4
	tr := New(Config{Shards: shards, SlowBudget: time.Nanosecond})
	for i := 0; i < 2*shards*slowCaptures; i++ {
		sp := tr.Begin(i % shards)
		sp.SetID("fill")
		sp.Finish()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.SlowTraces(); len(got.Traces) != shards*slowCaptures {
			b.Fatalf("SlowTraces holds %d captures, want %d", len(got.Traces), shards*slowCaptures)
		}
	}
}
