package feature

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"redhanded/internal/twitterdata"
)

// TestCacheHitEqualsFreshExtraction is invariant 9: every cache-served
// vector is bit-for-bit identical to a fresh extraction, including the
// per-user profile slots, across a duplicate-heavy corpus.
func TestCacheHitEqualsFreshExtraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 4096
	ex := NewExtractor(cfg)
	ref := NewExtractor(DefaultConfig()) // cache disabled

	tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 11, Days: 2, NormalCount: 150, AbusiveCount: 60, HatefulCount: 30,
	})
	// Three passes: the second sights every text again and admits it, the
	// third is served from cache and must still match the reference
	// extractor exactly.
	for pass := 0; pass < 3; pass++ {
		for i := range tweets {
			// Vary the user on the later passes to prove profile slots are
			// recomputed per tweet, not served from cache.
			tw := tweets[i]
			if pass > 0 {
				tw.User.FollowersCount += 1000 * pass
				tw.User.StatusesCount += 7 * pass
			}
			got := make([]float64, NumFeatures)
			want := make([]float64, NumFeatures)
			ex.ExtractCachedInto(got, &tw)
			ref.ExtractInto(want, &tw)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("pass %d tweet %d: feature %s diverged: cache=%v fresh=%v",
						pass, i, Name(j), got[j], want[j])
				}
			}
		}
	}
	st := ex.CacheStats()
	if st.Hits == 0 {
		t.Fatal("expected cache hits on the third pass")
	}
	if st.Misses == 0 {
		t.Fatal("expected cache misses on the first two passes")
	}
}

// TestCacheInvalidationOnRepublication proves a vocabulary republication
// makes older entries unreachable: the same text re-extracts with the new
// membership instead of being served stale.
func TestCacheInvalidationOnRepublication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 256
	ex := NewExtractor(cfg)

	tw := twitterdata.Tweet{Text: "blargword blargword is everywhere today"}
	x := make([]float64, NumFeatures)
	ex.ExtractCachedInto(x, &tw)
	if x[BoWScore] != 0 {
		t.Fatalf("unexpected baseline BoW score %v", x[BoWScore])
	}
	// Admit on the second sighting and confirm the hit on the third.
	ex.ExtractCachedInto(x, &tw)
	ex.ExtractCachedInto(x, &tw)
	if ex.CacheStats().Hits != 1 {
		t.Fatalf("expected exactly one hit, got %+v", ex.CacheStats())
	}

	v := ex.BoW().SnapshotVersion()
	ex.BoW().SetWords(append(ex.BoW().Words(), "blargword"))
	if got := ex.BoW().SnapshotVersion(); got != v+1 {
		t.Fatalf("snapshot version did not bump: %d -> %d", v, got)
	}

	ex.ExtractCachedInto(x, &tw)
	if x[BoWScore] != 2 {
		t.Fatalf("stale vector served after republication: BoW score %v, want 2", x[BoWScore])
	}
}

// TestCacheEviction bounds the cache: overfilling a small cache evicts
// instead of growing.
func TestCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 32 // 8 shards x 1 set x 4 ways
	ex := NewExtractor(cfg)

	x := make([]float64, NumFeatures)
	for i := 0; i < 500; i++ {
		tw := twitterdata.Tweet{Text: fmt.Sprintf("distinct text number %d with some filler words", i)}
		ex.ExtractCachedInto(x, &tw) // first sighting
		ex.ExtractCachedInto(x, &tw) // second: admitted
	}
	st := ex.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions on an overfilled cache: %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("cache grew past capacity: %+v", st)
	}
	if st.Capacity != 32 {
		t.Fatalf("capacity = %d, want 32", st.Capacity)
	}
}

// TestCacheDisabledByDefault pins the back-compat contract: a zero-config
// extractor has no cache and LookupCached never hits.
func TestCacheDisabledByDefault(t *testing.T) {
	ex := NewExtractor(DefaultConfig())
	tw := twitterdata.Tweet{Text: "hello world"}
	x := make([]float64, NumFeatures)
	ex.ExtractCachedInto(x, &tw)
	if ex.LookupCached(x, &tw) {
		t.Fatal("cache hit on a cache-disabled extractor")
	}
	if st := ex.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("expected zero stats, got %+v", st)
	}
}

func BenchmarkExtractCacheHit(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	ex := NewExtractor(cfg)
	tw := twitterdata.Tweet{
		IDStr:     "1",
		Text:      "you are a pathetic idiot and everyone will know it #news",
		CreatedAt: "Mon Jan 02 15:04:05 +0000 2006",
		User:      twitterdata.User{CreatedAt: "Mon Jan 02 15:04:05 +0000 2005", FollowersCount: 10},
	}
	var x Vec
	ex.ExtractCachedInto(x[:], &tw)
	ex.ExtractCachedInto(x[:], &tw)
	if !ex.LookupCached(x[:], &tw) {
		b.Fatal("expected warm cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ex.LookupCached(x[:], &tw) {
			b.Fatal("cache miss")
		}
	}
}

// TestCacheHitZeroAlloc pins the lookup path's allocation budget (the
// FeatCacheLookup redvet gate); the race detector's instrumentation
// allocates, so the assertion only holds without it.
func TestCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	ex := NewExtractor(cfg)
	tw := twitterdata.Tweet{
		Text:      "you are a pathetic idiot and everyone will know it #news",
		CreatedAt: "Mon Jan 02 15:04:05 +0000 2006",
		User:      twitterdata.User{CreatedAt: "Mon Jan 02 15:04:05 +0000 2005", FollowersCount: 10},
	}
	var x Vec
	ex.ExtractCachedInto(x[:], &tw)
	ex.ExtractCachedInto(x[:], &tw)
	allocs := testing.AllocsPerRun(200, func() {
		if !ex.LookupCached(x[:], &tw) {
			t.Fatal("cache miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates: %v allocs/op", allocs)
	}
}

// TestNoChangeRoundKeepsSnapshotAndCache pins the republication rule: an
// enhancement round that neither adds nor removes a word keeps the
// published snapshot version, and with it every resident cache entry; a
// round that does add or remove bumps the version and invalidates.
func TestNoChangeRoundKeepsSnapshotAndCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 256
	cfg.BoW.updateEvery = 10
	ex := NewExtractor(cfg)
	learn := func(n int, text, label string) {
		for i := 0; i < n; i++ {
			ex.Learn(&twitterdata.Tweet{Text: text, Label: label})
		}
	}
	probe := twitterdata.Tweet{Text: "plain words about zorp nobody scores"}
	x := make([]float64, NumFeatures)
	resident := func() bool { return ex.LookupCached(x, &probe) }

	// 20 effective rounds (both sides past the 50-tweet evidence floor) in
	// which the two classes use the same words: nothing to add or remove.
	ex.ExtractCachedInto(x, &probe)
	ex.ExtractCachedInto(x, &probe) // second sighting: resident
	v0 := ex.BoW().SnapshotVersion()
	for i := 0; i < 150; i++ {
		learn(1, "same boring words everywhere", twitterdata.LabelAbusive)
		learn(1, "same boring words everywhere", twitterdata.LabelNormal)
	}
	if got := ex.BoW().SnapshotVersion(); got != v0 {
		t.Fatalf("no-change rounds moved the snapshot version %d -> %d", v0, got)
	}
	if !resident() {
		t.Fatal("no-change rounds flushed a resident cache entry")
	}

	// A word only aggressive tweets use gets added: version bumps, the
	// entry goes stale, and a fresh extraction scores the new word.
	learn(40, "zorp zorp you zorp", twitterdata.LabelAbusive)
	v1 := ex.BoW().SnapshotVersion()
	if v1 == v0 || !ex.BoW().Contains("zorp") {
		t.Fatalf("addition round: version %d -> %d, zorp member = %v", v0, v1, ex.BoW().Contains("zorp"))
	}
	if resident() {
		t.Fatal("addition round left a stale cache entry reachable")
	}
	if ex.ExtractCachedInto(x, &probe); x[BoWScore] != 1 {
		t.Fatalf("BoW score after addition = %v, want 1", x[BoWScore])
	}

	// The word turns popular in normal tweets and is evicted again.
	learn(400, "zorp is a lovely zorp", twitterdata.LabelNormal)
	if v2 := ex.BoW().SnapshotVersion(); v2 == v1 || ex.BoW().Contains("zorp") {
		t.Fatalf("removal round: version %d -> %d, zorp member = %v", v1, v2, ex.BoW().Contains("zorp"))
	}
	if resident() {
		t.Fatal("removal round left a stale cache entry reachable")
	}
}

// TestCacheAdmitsOnSecondSighting pins the doorkeeper: a text's first
// sighting admits nothing and allocates nothing, its second admits it, and
// its third is a hit.
func TestCacheAdmitsOnSecondSighting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	ex := NewExtractor(cfg)
	x := make([]float64, NumFeatures)

	if !raceEnabled {
		// AllocsPerRun calls once more than it counts; texts[0] warms the
		// extraction scratch pool.
		const runs = 100
		texts := make([]twitterdata.Tweet, runs+2)
		for i := range texts {
			texts[i] = twitterdata.Tweet{
				Text:      fmt.Sprintf("first sighting number %d of many", i),
				CreatedAt: "Mon Jan 02 15:04:05 +0000 2006",
				User:      twitterdata.User{CreatedAt: "Mon Jan 02 15:04:05 +0000 2005"},
			}
		}
		ex.ExtractCachedInto(x, &texts[0])
		i := 1
		allocs := testing.AllocsPerRun(runs, func() {
			ex.ExtractCachedInto(x, &texts[i])
			i++
		})
		if allocs != 0 {
			t.Fatalf("a first sighting allocates %v", allocs)
		}
	}
	tw := twitterdata.Tweet{Text: "once is chance, twice is a pattern"}
	before := ex.CacheStats()
	ex.ExtractCachedInto(x, &tw)
	if st := ex.CacheStats(); st.Entries != before.Entries || st.Misses != before.Misses+1 {
		t.Fatalf("first sighting: %+v, before %+v; want one miss and no entry", st, before)
	}
	if ex.LookupCached(x, &tw) {
		t.Fatal("a text sighted once is resident")
	}
	ex.ExtractCachedInto(x, &tw)
	if st := ex.CacheStats(); st.Entries != before.Entries+1 || st.Hits != before.Hits {
		t.Fatalf("second sighting: %+v, before %+v; want one new entry and no hit", st, before)
	}
	want := append([]float64(nil), x...)
	ex.ExtractCachedInto(x, &tw)
	if st := ex.CacheStats(); st.Hits != before.Hits+1 {
		t.Fatalf("third sighting: %+v; want a hit", st)
	}
	if vectorDiff(want, x) != "" {
		t.Fatalf("hit %v, admitted %v", x, want)
	}
}

// TestTextHashSpread checks the cache key hash over 65 536 distinct
// generator texts: the set group (bits 48-50), the set index within it
// (the low bits) and each bit they read are balanced; texts that differ only in
// their last 1-7 bytes never collide; one flipped byte flips half the
// output bits.
func TestTextHashSpread(t *testing.T) {
	const n = 1 << 16
	g := twitterdata.NewGenerator(5, 1)
	seen := make(map[string]bool, n)
	texts := make([]string, 0, n)
	for i := 0; len(texts) < n; i++ {
		if i == 8*n {
			t.Fatalf("only %d distinct texts in %d tweets", len(texts), i)
		}
		if txt := g.Tweet(i%3, 0).Text; !seen[txt] {
			seen[txt] = true
			texts = append(texts, txt)
		}
	}
	var groups [1 << cacheGroupBits]int
	var ones [64]int
	for _, s := range texts {
		h := textHash(s)
		groups[group(h)]++
		for b := range ones {
			ones[b] += int(h >> b & 1)
		}
	}
	for i, c := range groups {
		if share := float64(c) / n; math.Abs(share-0.125) > 0.015 {
			t.Errorf("set group %d holds %.2f%% of the texts, want 12.5 ± 1.5%%", i, 100*share)
		}
	}
	for _, b := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 48, 49, 50} {
		if share := float64(ones[b]) / n; math.Abs(share-0.5) > 0.02 {
			t.Errorf("bit %d is set for %.2f%% of the texts, want 50 ± 2%%", b, 100*share)
		}
	}

	byHash := make(map[uint64]string)
	for i, s := range texts[:1024] {
		for k := 1; k <= 7 && k <= len(s); k++ {
			for v := uint64(0); v < 32; v++ {
				b := []byte(s)
				r := (v + uint64(i)<<5) * 0x9e3779b97f4a7c15
				for j := len(b) - k; j < len(b); j++ {
					b[j] = byte(r)
					r >>= 8
				}
				h := textHash(string(b))
				if prev, ok := byHash[h]; ok && prev != string(b) {
					t.Fatalf("%q and %q collide", prev, b)
				}
				byHash[h] = string(b)
			}
		}
	}

	flipped := 0
	for i, s := range texts[:4096] {
		b := []byte(s)
		b[i%len(b)] ^= byte(1 + i%255)
		flipped += bits.OnesCount64(textHash(s) ^ textHash(string(b)))
	}
	if mean := float64(flipped) / 4096; math.Abs(mean-32) > 4 {
		t.Errorf("one flipped byte flips %.1f output bits on average, want 32 ± 4", mean)
	}
}
