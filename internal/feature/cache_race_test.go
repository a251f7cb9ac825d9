package feature

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"redhanded/internal/twitterdata"
)

// TestCacheConcurrentReadsVsRepublication drives lock-free cache readers
// against a writer republishing BoW snapshots and proves no stale-vector
// serve: the appended vocabulary grows monotonically, so the BoW score a
// reader observes must lie between the scores implied by the snapshot
// versions bracketing its extraction — and must equal it exactly when the
// version was stable across the call. Run under -race this also checks the
// memory model of the slot pointers and the version plumbing.
func TestCacheConcurrentReadsVsRepublication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheEntries = 2048
	ex := NewExtractor(cfg)

	const rounds = 64
	words := make([]string, rounds)
	for i := range words {
		// Purely alphabetic so the tokenizer keeps each as one word, and
		// prefixed so none collide with the seed lexicon.
		words[i] = fmt.Sprintf("qzvw%c%cword", 'a'+i/26, 'a'+i%26)
	}
	// The probe text contains every word the writer will ever append, each
	// once: under snapshot version v0+k its BoW score is exactly k.
	text := strings.Join(words, " ")
	v0 := ex.BoW().SnapshotVersion()

	// Pre-verify the score model sequentially before going concurrent.
	probe := twitterdata.Tweet{Text: text}
	x := make([]float64, NumFeatures)
	ex.ExtractInto(x, &probe)
	if x[BoWScore] != 0 {
		t.Fatalf("score model broken: baseline score %v, want 0", x[BoWScore])
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 16)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tw := twitterdata.Tweet{Text: text, User: twitterdata.User{FollowersCount: 100 + r}}
			vec := make([]float64, NumFeatures)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v1 := ex.BoW().SnapshotVersion()
				ex.ExtractCachedInto(vec, &tw)
				v2 := ex.BoW().SnapshotVersion()
				score := int64(vec[BoWScore])
				lo, hi := int64(v1-v0), int64(v2-v0)
				if score < lo || score > hi {
					select {
					case errs <- fmt.Sprintf("stale or torn vector: score %d outside version window [%d,%d]", score, lo, hi):
					default:
					}
					return
				}
				if vec[CntFollowers] != float64(100+r) {
					select {
					case errs <- fmt.Sprintf("profile slot served from cache: followers %v, want %d", vec[CntFollowers], 100+r):
					default:
					}
					return
				}
			}
		}(r)
	}

	// Writer: one republication per added word, interleaved with reads.
	for i := 0; i < rounds; i++ {
		ex.BoW().SetWords(append(ex.BoW().Words(), words[i]))
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Quiesced: the final version must serve the full score, cache or not.
	ex.ExtractCachedInto(x, &probe)
	if x[BoWScore] != rounds {
		t.Fatalf("final score %v, want %d", x[BoWScore], rounds)
	}
	ex.ExtractCachedInto(x, &probe)
	if x[BoWScore] != rounds {
		t.Fatalf("final cached score %v, want %d", x[BoWScore], rounds)
	}
}

// TestCacheConcurrentFirstSightings has four goroutines sight the same
// fresh texts at once, so doorkeeper loads and stores race with each other
// and with admissions. Every vector must still equal a fresh extraction, the
// counters must account for every call, and a lost doorkeeper race may only
// delay an admission: afterwards, two more sightings make any text resident.
func TestCacheConcurrentFirstSightings(t *testing.T) {
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

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vec := make([]float64, NumFeatures)
			for r := 0; r < rounds; r++ {
				for i := range tweets {
					ex.ExtractCachedInto(vec, &tweets[i])
					if d := vectorDiff(want[i], vec); d != "" {
						errs <- fmt.Sprintf("text %d: %s", i, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	st := ex.CacheStats()
	if calls := int64(workers * rounds * len(tweets)); st.Hits+st.Misses != calls {
		t.Fatalf("%d hits + %d misses, want %d calls", st.Hits, st.Misses, calls)
	}
	if st.Hits == 0 || st.Entries > st.Capacity {
		t.Fatalf("stats after concurrent sightings: %+v", st)
	}
	x := make([]float64, NumFeatures)
	for i := range tweets {
		ex.ExtractCachedInto(x, &tweets[i])
		ex.ExtractCachedInto(x, &tweets[i])
		if !ex.LookupCached(x, &tweets[i]) {
			t.Fatalf("text %d is not resident after two sequential sightings", i)
		}
	}
}
