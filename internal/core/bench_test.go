package core

import (
	"testing"

	"redhanded/internal/twitterdata"
)

// BenchmarkPipelineProcessLabeled runs a fixed window of labeled tweets
// through a pipeline built afresh, with the timer stopped, at the start
// of every window. An op is one tweet, and the model never trains on more
// than one window, so the mean cost of an op is the same whatever b.N the
// runner picks (a multiple of the window: -benchtime 20000x or 120000x).
func BenchmarkPipelineProcessLabeled(b *testing.B) {
	const window = 2000
	data := smallDataset(1, 4000, 2000, 400)[:window]
	var p *Pipeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			b.StopTimer()
			p = NewPipeline(DefaultOptions())
			b.StartTimer()
		}
		p.Process(&data[i%window])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tweet")
}

func BenchmarkPipelineProcessUnlabeled(b *testing.B) {
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(smallDataset(2, 2000, 1000, 200))
	src := twitterdata.NewUnlabeledSource(3, 10)
	tweets := make([]twitterdata.Tweet, 2000)
	for i := range tweets {
		tweets[i] = src.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(&tweets[i%len(tweets)])
	}
}
