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

// BenchmarkExtractNoPreprocess times the p=OFF extraction (ScanRaw).
func BenchmarkExtractNoPreprocess(b *testing.B) {
	tweets := benchTweets(2000)
	e := NewExtractor(Config{Preprocess: false})
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
// extractor computes a full feature vector with zero heap allocations,
// under either tokenization spec.
func TestExtractIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates in sync.Pool")
	}
	tweets := benchTweets(64)
	for _, preprocess := range []bool{true, false} {
		e := NewExtractor(Config{Preprocess: preprocess})
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
			t.Errorf("p=%v: ExtractInto allocates %.1f times per tweet, want 0", preprocess, allocs)
		}
	}
}

// TestLearnKnownWordsZeroAlloc: once the rolling tables hold a tweet's
// words, learning it again allocates nothing under p=OFF (a new word costs
// its counter and key).
func TestLearnKnownWordsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates in sync.Pool")
	}
	e := NewExtractor(Config{Preprocess: false, BoW: BoWConfig{updateEvery: 1 << 30}})
	tweets := benchTweets(64)
	for i := range tweets {
		tweets[i].Label = twitterdata.LabelAbusive
		e.Learn(&tweets[i]) // every word becomes known
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e.Learn(&tweets[i%len(tweets)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Learn of known words allocates %.1f times per tweet, want 0", allocs)
	}
}

func BenchmarkBoWLearn(b *testing.B) {
	bow := NewAdaptiveBoW(BoWConfig{})
	var ts text.Scratch
	ts.ScanRaw("you are a zorp idiot and fool")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bow.learnScanned(&ts, i%2 == 0)
	}
}
