package core

import (
	"fmt"
	"testing"

	"redhanded/internal/feature"
	"redhanded/internal/twitterdata"
)

// testdata/parent_cache.golden was written on commit d4373a5, the last one
// whose extraction cache spread its slots over eight lock-striped shards.
// Do not regenerate it from this tree: it is the record of the hit, miss,
// eviction and entry counts that layout produced, and the one-table cache
// keeps the same set mapping so that every count stays equal. One section
// per cacheGoldenCases entry, one CacheStats line every cacheGoldenEvery
// tweets.
const cacheGolden = "testdata/parent_cache.golden"

const (
	cacheGoldenTweets = 24000
	cacheGoldenEvery  = 4000
)

// cacheGoldenStream is a retweet-heavy stream: UnlabeledSource at a 0.3
// duplicate ratio with every fourth tweet drawn from a labeled dataset, so
// the adaptive BoW republishes and stale entries become eviction victims.
func cacheGoldenStream() []twitterdata.Tweet {
	src := twitterdata.NewUnlabeledSource(31, 10)
	src.SetDuplicateRatio(0.3)
	labeled := smallDataset(32, 3000, 2000, 1000)
	tweets := make([]twitterdata.Tweet, cacheGoldenTweets)
	for i := range tweets {
		if i%4 == 3 {
			tweets[i] = labeled[(i/4)%len(labeled)]
		} else {
			tweets[i] = src.Next()
		}
	}
	return tweets
}

var cacheGoldenCases = []struct {
	name string
	// run processes tweets[i:j] and returns the cache counts after them.
	run func() func(tweets []twitterdata.Tweet) feature.CacheStats
}{
	// The default pipeline: 8192 slots, adaptive BoW.
	{"pipeline", func() func([]twitterdata.Tweet) feature.CacheStats {
		p := NewPipeline(DefaultOptions())
		return func(tweets []twitterdata.Tweet) feature.CacheStats {
			p.ProcessAll(tweets)
			return p.Extractor().CacheStats()
		}
	}},
	// A 512-slot cache under a frozen BoW: every set overflows, so CLOCK
	// picks most victims.
	{"small", func() func([]twitterdata.Tweet) feature.CacheStats {
		ex := feature.NewExtractor(feature.Config{Preprocess: true, BoW: feature.BoWConfig{Frozen: true}, CacheEntries: 512})
		x := make([]float64, feature.NumFeatures)
		return func(tweets []twitterdata.Tweet) feature.CacheStats {
			for i := range tweets {
				ex.ExtractCachedInto(x, &tweets[i])
			}
			return ex.CacheStats()
		}
	}},
}

// TestCacheCountsMatchParent holds the extraction cache's counters to the
// ones the parent's sharded layout produced on the same stream.
func TestCacheCountsMatchParent(t *testing.T) {
	golden := loadGolden(t, cacheGolden)
	tweets := cacheGoldenStream()
	for _, tc := range cacheGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			step := tc.run()
			var got []string
			for i := 0; i < len(tweets); i += cacheGoldenEvery {
				st := step(tweets[i : i+cacheGoldenEvery])
				got = append(got, fmt.Sprintf("%d hits %d misses %d evictions %d entries %d capacity %d",
					i+cacheGoldenEvery, st.Hits, st.Misses, st.Evictions, st.Entries, st.Capacity))
			}
			requireGolden(t, tc.name, got, golden[tc.name])
		})
	}
}
