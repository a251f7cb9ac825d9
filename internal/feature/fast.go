package feature

import (
	"sync"

	"redhanded/internal/text"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// The single-pass extraction fast path. One text.Scratch scan replaces the
// legacy pipeline's Clean + Tokenize + per-feature passes; all token-level
// features (POS counts, sentiment, swear count, BoW score) are then
// computed in a single loop over the scanned words, using byte-slice views
// into the scratch arenas — no per-tweet strings, slices, or maps.
//
// Equivalence with extractLegacyInto is enforced by TestGoldenEquivalence
// (the full generator corpus) and FuzzExtractEquivalence (arbitrary text).

// extractScratch bundles the reusable per-extraction state. Extract is
// safe for concurrent use because scratches are pooled, never shared.
type extractScratch struct {
	ts   text.Scratch
	step sentiment.Stepper
	alt  []byte // a token's second lookup key: apostrophe-stripped or de-elongated
}

var extractPool = sync.Pool{New: func() any { return new(extractScratch) }}

// ExtractInto computes the feature vector for one tweet into dst
// (allocating only when dst is mis-sized) and returns it. With
// preprocessing enabled — the production configuration — it runs the
// single-pass fast path; the Preprocess=OFF ablation falls back to the
// legacy multi-pass implementation, whose raw-text tokenization the
// scanner intentionally does not model.
//
//redvet:noalloc gate=FeaturePathFast
func (e *Extractor) ExtractInto(dst []float64, tw *twitterdata.Tweet) []float64 {
	if len(dst) != NumFeatures {
		//redvet:ignore noalloc resize fallback for mis-sized callers; steady-state callers pass a right-sized reused vector and never reach this
		dst = make([]float64, NumFeatures)
	}
	if !e.cfg.Preprocess {
		e.extractLegacyInto(dst, tw)
		return dst
	}
	sc := extractPool.Get().(*extractScratch)
	e.extractFast(dst, tw, sc, e.bow.lookupSnapshot())
	extractPool.Put(sc)
	return dst
}

// extractFast runs the single-pass extraction against one BoW membership
// snapshot. The snapshot is a parameter (not loaded inside) so the
// extraction cache can tag the resulting vector with the exact snapshot
// version it was computed under.
//
//redvet:noalloc gate=FeaturePathFast
func (e *Extractor) extractFast(x []float64, tw *twitterdata.Tweet, sc *extractScratch, snap *bowSnapshot) {
	ts := &sc.ts
	ts.Scan(tw.Text)

	// Profile and network features come from the user payload.
	x[AccountAge] = tw.AccountAgeDays()
	x[CntPosts] = float64(tw.User.StatusesCount)
	x[CntLists] = float64(tw.User.ListedCount)
	x[CntFollowers] = float64(tw.User.FollowersCount)
	x[CntFriends] = float64(tw.User.FriendsCount)

	// Basic text features were counted on the raw text during the scan.
	st := &ts.Stats
	x[NumHashtags] = float64(st.Hashtags)
	x[NumURLs] = float64(st.URLs)
	x[NumUpperCases] = float64(st.UpperWords)

	nw := ts.Words()
	if nw == 0 {
		x[MeanWordLength] = 0
	} else {
		x[MeanWordLength] = float64(st.LetterSum) / float64(nw)
	}
	if st.Sentences == 0 {
		x[WordsPerSentence] = 0
	} else {
		x[WordsPerSentence] = float64(nw) / float64(st.Sentences)
	}

	// Token-level features in one loop. One probe of the fused table per
	// token answers the POS, sentiment, swear and BoW questions at once; a
	// token is probed again only under another key: without its
	// apostrophes or de-elongated for sentiment.
	var adjectives, adverbs, verbs int
	swears := 0
	bowScore := 0.0
	sc.step.Reset()
	afterTo, afterDeterminer := false, false
	for i := 0; i < nw; i++ {
		lower := ts.Lower(i)
		info := snap.lookup(lower)

		tag, closed := info.tag()
		if !closed {
			tag = pos.TagOpenLower(lower, afterTo, afterDeterminer)
		}
		switch tag {
		case pos.Adjective:
			adjectives++
		case pos.Adverb:
			adverbs++
		case pos.Verb:
			verbs++
		}
		afterTo, afterDeterminer = string(lower) == "to", tag == pos.Determiner

		sc.sentimentStep(snap, i, lower, info)

		if info&infoSwear != 0 {
			swears++
		}
		if info&infoBoW != 0 {
			bowScore++
		}
	}

	x[CntAdjectives] = float64(adjectives)
	x[CntAdverbs] = float64(adverbs)
	x[CntVerbs] = float64(verbs)

	// Preprocessed text has no '!' left, so no exclamation emphasis.
	score := sc.step.Finish(0)
	x[SentimentScorePos] = float64(score.Positive)
	x[SentimentScoreNeg] = float64(score.Negative)

	x[CntSwearWords] = float64(swears)
	x[BoWScore] = bowScore
}

// sentimentStep folds word i of the scanned text, whose lowered form and
// table entry the caller already holds, into the sentiment stepper.
//
//redvet:noalloc gate=FeaturePathFast
func (sc *extractScratch) sentimentStep(snap *bowSnapshot, i int, lower []byte, info wordInfo) {
	if info&infoEmoticon != 0 {
		//redvet:ignore noalloc a map lookup keyed by string(bytes) does not materialize the string; only tokens that lower to an emoticon get here
		if v, ok := letterEmoticons[string(sc.ts.Clean(i))]; ok {
			sc.step.Score(v)
			return
		}
	}
	// Sentiment keys on the apostrophe-free word ("don't" -> "dont").
	word := lower
	letters, uppers, elongated, apostrophe := sc.ts.WordInfo(i)
	if apostrophe {
		sc.alt = sc.alt[:0]
		for _, c := range lower {
			if c != '\'' {
				sc.alt = append(sc.alt, c)
			}
		}
		word, info = sc.alt, snap.lookup(sc.alt)
	}
	sw := info.sentiment()
	if elongated && sw == (sentiment.Word{}) {
		// "coooool" is on no list, but its squeezed form "col" may be a term.
		sc.alt = sentiment.Squeeze(sc.alt[:0], word)
		sw.Strength = snap.lookup(sc.alt).sentiment().Strength
	}
	sc.step.Step(sw, letters >= 2 && uppers == letters, elongated)
}
