package feature

import (
	"testing"

	"redhanded/internal/text"
	"redhanded/internal/twitterdata"
)

func benchTweets(n int) []twitterdata.Tweet {
	g := twitterdata.NewGenerator(1, 10)
	out := make([]twitterdata.Tweet, n)
	for i := range out {
		out[i] = g.Tweet(i%3, i%10)
	}
	return out
}

func BenchmarkExtract(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(&tweets[i%len(tweets)])
	}
}

func BenchmarkExtractNoPreprocess(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(Config{Preprocess: false, BoW: DefaultBoWConfig()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(&tweets[i%len(tweets)])
	}
}

// BenchmarkFeaturePathFast measures the single-pass pooled fast path
// (tweets/s, allocs/op); bench/ reports the same layer as
// feature.extract_us / feature.extract_allocs.
func BenchmarkFeaturePathFast(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(DefaultConfig())
	dst := make([]float64, NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExtractInto(dst, &tweets[i%len(tweets)])
	}
}

// BenchmarkFeaturePathScanCorpus measures the scanner alone on the corpus
// BenchmarkFeaturePathFast extracts, so the two subtract to the per-token
// lookup cost (text's own BenchmarkFeaturePathScan loops over one tweet).
func BenchmarkFeaturePathScanCorpus(b *testing.B) {
	tweets := benchTweets(2000)
	var sc text.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scan(tweets[i%len(tweets)].Text)
	}
}

// BenchmarkFeaturePathLegacy measures the multi-pass reference
// implementation the fast path is proven equivalent to.
func BenchmarkFeaturePathLegacy(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(DefaultConfig())
	dst := make([]float64, NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.extractLegacyInto(dst, &tweets[i%len(tweets)])
	}
}

// BenchmarkFeaturePathFastParallel exercises the scratch and vector pools
// under contention, the serving-shard shape.
func BenchmarkFeaturePathFastParallel(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		dst := make([]float64, NumFeatures)
		for pb.Next() {
			e.ExtractInto(dst, &tweets[i%len(tweets)])
			i++
		}
	})
}

// TestExtractIntoZeroAlloc pins the tentpole property end to end: a warm
// extractor computes a full feature vector with zero heap allocations.
func TestExtractIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates in sync.Pool")
	}
	tweets := benchTweets(64)
	e := NewExtractor(DefaultConfig())
	dst := make([]float64, NumFeatures)
	for i := range tweets {
		e.ExtractInto(dst, &tweets[i]) // warm pools and arenas
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e.ExtractInto(dst, &tweets[i%len(tweets)])
		i++
	})
	if allocs != 0 {
		t.Errorf("ExtractInto allocates %.1f times per tweet, want 0", allocs)
	}
}

func BenchmarkBoWLearn(b *testing.B) {
	bow := NewAdaptiveBoW(DefaultBoWConfig())
	tokens := []string{"you", "are", "a", "zorp", "idiot", "and", "fool"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bow.Learn(tokens, i%2 == 0)
	}
}

func BenchmarkBoWScore(b *testing.B) {
	bow := NewAdaptiveBoW(DefaultBoWConfig())
	tokens := []string{"you", "fucking", "idiot", "look", "at", "this", "shit"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bow.Score(tokens)
	}
}
