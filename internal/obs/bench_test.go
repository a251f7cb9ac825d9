package obs

import (
	"testing"
	"time"

	"redhanded/internal/metrics"
)

// BenchmarkSpanLifecycle measures the full per-tweet tracing cost: begin,
// six stage transitions, finish (encode + ring + reservoir + histograms).
// This is the overhead tracing adds to a pipeline Process call; it must
// report 0 allocs/op.
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

func BenchmarkRingSnapshot(b *testing.B) {
	tr := New(Config{SlowBudget: -1, ringSize: 512})
	for i := 0; i < 1024; i++ {
		sp := tr.Begin(0)
		sp.SetID("fill")
		sp.Finish()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Snapshot(64); len(got.Recent) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
