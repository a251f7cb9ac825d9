// The paper's tables and figures are regenerated by `cmd/benchrunner -exp
// <id>` (and smoke-tested by internal/experiments' TestAllExperimentsSmoke);
// this file keeps the end-to-end per-tweet benchmark of the public API.
package redhanded_test

import (
	"testing"

	"redhanded"
)

// BenchmarkFeaturePathProcess measures the full per-tweet serving hot
// path — extract (single-pass fast path), normalize, predict, train/alert
// — end to end through the sequential pipeline.
func BenchmarkFeaturePathProcess(b *testing.B) {
	cfg := redhanded.DefaultAggressionConfig()
	cfg.NormalCount, cfg.AbusiveCount, cfg.HatefulCount = 1300, 500, 200
	tweets := redhanded.GenerateAggression(cfg)
	opts := redhanded.DefaultOptions()
	opts.SampleStep = 0
	p := redhanded.NewPipeline(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(&tweets[i%len(tweets)])
	}
}
