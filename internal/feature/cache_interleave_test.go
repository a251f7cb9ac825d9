package feature

import (
	"fmt"
	"strings"
	"testing"

	"redhanded/internal/twitterdata"
)

// TestCacheInterleavedReadsVsRepublication interleaves cached extractions
// by four readers with BoW republications and proves no stale vector is
// served: the probe text holds every word the writer will append, each
// once, so under snapshot version v0+k its BoW score is exactly k, and
// every read — the miss right after a republication and the hits after it
// — must serve the score of the version current at the call, with the
// reader's own profile slots.
func TestCacheInterleavedReadsVsRepublication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 2048
	ex := NewExtractor(cfg)

	const rounds, readers = 64, 4
	words := make([]string, rounds)
	for i := range words {
		// Purely alphabetic so the tokenizer keeps each as one word, and
		// prefixed so none collide with the seed lexicon.
		words[i] = fmt.Sprintf("qzvw%c%cword", 'a'+i/26, 'a'+i%26)
	}
	text := strings.Join(words, " ")
	v0 := ex.BoW().SnapshotVersion()

	vec := make([]float64, NumFeatures)
	for k := 0; k <= rounds; k++ {
		if got := ex.BoW().SnapshotVersion() - v0; got != uint64(k) {
			t.Fatalf("round %d: %d republications", k, got)
		}
		for r := 0; r < 2*readers; r++ {
			tw := twitterdata.Tweet{Text: text, User: twitterdata.User{FollowersCount: 100 + r%readers}}
			ex.ExtractCachedInto(vec, &tw)
			if vec[BoWScore] != float64(k) {
				t.Fatalf("round %d read %d: stale vector, score %v", k, r, vec[BoWScore])
			}
			if vec[CntFollowers] != float64(100+r%readers) {
				t.Fatalf("round %d read %d: profile slot served from cache: followers %v", k, r, vec[CntFollowers])
			}
		}
		if k < rounds {
			ex.BoW().SetWords(append(ex.BoW().Words(), words[k]))
		}
	}
	// Round 0's first read only sights the text and its second admits it;
	// each later version's first read misses and admits at once (the
	// doorkeeper has sighted the text). Every other read hits.
	st := ex.CacheStats()
	if want := int64(2*readers - 2 + rounds*(2*readers-1)); st.Hits != want {
		t.Fatalf("%d hits, want %d: %+v", st.Hits, want, st)
	}
}

// TestCacheDoorkeeperFirstSightings sights 256 fresh texts four times in a
// row, in three rounds. Every vector equals a fresh extraction; each text
// misses exactly twice — its first sighting only records its hash, its
// second admits it — and hits on every later sighting.
func TestCacheDoorkeeperFirstSightings(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 4096
	ex := NewExtractor(cfg)
	ref := NewExtractor(DefaultConfig())

	tweets := make([]twitterdata.Tweet, 256)
	want := make([][]float64, len(tweets))
	for i := range tweets {
		tweets[i] = twitterdata.Tweet{Text: fmt.Sprintf("concurrent sighting %c%c of a fresh text", 'a'+i/26, 'a'+i%26)}
		want[i] = ref.Extract(&tweets[i])
	}

	const sightings, rounds = 4, 3
	vec := make([]float64, NumFeatures)
	for r := 0; r < rounds; r++ {
		for i := range tweets {
			for s := 0; s < sightings; s++ {
				ex.ExtractCachedInto(vec, &tweets[i])
				if d := vectorDiff(want[i], vec); d != "" {
					t.Fatalf("round %d text %d sighting %d: %s", r, i, s, d)
				}
			}
		}
		if r == 0 {
			if st := ex.CacheStats(); st.Entries != len(tweets) {
				t.Fatalf("after one round of sightings: %+v, want every text resident", st)
			}
		}
	}
	st := ex.CacheStats()
	calls := int64(sightings * rounds * len(tweets))
	if st.Misses != int64(2*len(tweets)) || st.Hits != calls-st.Misses || st.Evictions != 0 {
		t.Fatalf("stats after %d calls: %+v, want 2 misses per text and hits for the rest", calls, st)
	}
}
