package feature

import (
	"fmt"
	"strings"
	"testing"

	"redhanded/internal/twitterdata"
)

// TestGoldenEquivalence is the fast path's contract: over the full
// synthetic generator corpus — every class profile, every day, with the
// adaptive BoW learning and enhancing between extractions — the single-pass
// ExtractInto must produce bit-identical feature vectors to the legacy
// Clean+Tokenize+BoW implementation.
func TestGoldenEquivalence(t *testing.T) {
	cfg := twitterdata.AggressionConfig{
		Seed:         7,
		Days:         10,
		NormalCount:  6300,
		AbusiveCount: 3200,
		HatefulCount: 1200,
	}
	tweets := twitterdata.GenerateAggression(cfg)
	if len(tweets) < 10000 {
		t.Fatalf("corpus too small: %d tweets", len(tweets))
	}
	// Unlabeled generator traffic exercises the same profiles through the
	// endless source (slang drift included).
	unlabeled := twitterdata.NewUnlabeledSource(11, cfg.Days)
	for i := 0; i < 2000; i++ {
		tweets = append(tweets, unlabeled.Next())
	}

	e := NewExtractor(DefaultConfig())
	fast := make([]float64, NumFeatures)
	slow := make([]float64, NumFeatures)
	for i := range tweets {
		tw := &tweets[i]
		e.extractLegacyInto(slow, tw)
		e.ExtractInto(fast, tw)
		if diff := vectorDiff(slow, fast); diff != "" {
			t.Fatalf("tweet %d (%q): %s", i, tw.Text, diff)
		}
		// Learning evolves the vocabulary (and the lock-free snapshot) so
		// later iterations compare against a shifting BoW.
		e.Learn(tw)
	}
	if e.BoW().Size() <= 347 && e.BoW().Additions() == 0 {
		t.Log("warning: BoW never adapted during the golden run")
	}
}

// vectorDiff reports the first mismatching feature, or "" when the vectors
// are bit-identical.
func vectorDiff(want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("length %d vs %d", len(want), len(got))
	}
	var b strings.Builder
	for i := range want {
		if want[i] != got[i] {
			fmt.Fprintf(&b, "feature %s: legacy %v, fast %v; ", Name(i), want[i], got[i])
		}
	}
	return b.String()
}
