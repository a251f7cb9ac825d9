package feature

import (
	"sync"

	"redhanded/internal/text"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// The single-pass extraction. One text.Scratch scan, under the spec
// Config.Preprocess selects, yields the words and the raw-text counts; all
// word-level features (POS counts, sentiment, swear count, BoW score) are
// then computed in a single loop over the scanned words, using byte-slice
// views into the scratch arenas — no per-tweet strings, slices, or maps.
//
// Both specs are pinned to the multi-pass extractor this loop replaced:
// TestGoldenEquivalence and FuzzExtractEquivalence compare against its copy
// in reference_test.go, and TestPreprocessOffGolden against the vectors it
// produced (testdata/preprocess_off.golden).

// extractScratch bundles the reusable per-extraction state. Scratches are
// pooled, never shared, so ExtractInto may run on several goroutines at
// once (see Extractor).
type extractScratch struct {
	ts   text.Scratch
	step sentiment.Stepper
	alt  []byte // a token's second lookup key: apostrophe-stripped or de-elongated
}

var extractPool = sync.Pool{New: func() any { return new(extractScratch) }}

// ExtractInto computes the feature vector for one tweet into dst
// (allocating only when dst is mis-sized), under the tokenization spec
// Config.Preprocess selects, and returns it.
//
//redvet:noalloc gate=FeaturePathFast
func (e *Extractor) ExtractInto(dst []float64, tw *twitterdata.Tweet) []float64 {
	if len(dst) != NumFeatures {
		//redvet:ignore noalloc resize fallback for mis-sized callers; steady-state callers pass a right-sized reused vector and never reach this
		dst = make([]float64, NumFeatures)
	}
	sc := extractPool.Get().(*extractScratch)
	e.extractFast(dst, tw, sc, e.bow.lookupSnapshot())
	extractPool.Put(sc)
	return dst
}

// scan tokenizes s under the spec Config.Preprocess selects: Scan cleans
// (p=ON), ScanRaw keeps every raw field (p=OFF).
//
//redvet:noalloc gate=FeaturePathFast
func (e *Extractor) scan(ts *text.Scratch, s string) {
	if e.cfg.Preprocess {
		ts.Scan(s)
	} else {
		ts.ScanRaw(s)
	}
}

// extractFast runs the single-pass extraction against one BoW membership
// snapshot. The snapshot is a parameter (not loaded inside) so the
// extraction cache can tag the resulting vector with the exact snapshot
// version it was computed under.
//
//redvet:noalloc gate=FeaturePathFast
func (e *Extractor) extractFast(x []float64, tw *twitterdata.Tweet, sc *extractScratch, snap *bowSnapshot) {
	ts := &sc.ts
	e.scan(ts, tw.Text)

	// Profile and network features come from the user payload.
	e.fillProfile(x, tw)

	// Basic text features were counted on the raw text during the scan.
	st := &ts.Stats
	x[NumHashtags] = float64(st.Hashtags)
	x[NumURLs] = float64(st.URLs)
	x[NumUpperCases] = float64(st.UpperWords)

	// Word-level features in one loop. One probe of the fused table per
	// word answers the POS, sentiment, swear and BoW questions at once; a
	// word is probed again only under another key: its letters-trimmed key
	// when that differs from the token (raw spec only), without its
	// apostrophes or de-elongated for sentiment.
	var adjectives, adverbs, verbs int
	swears := 0
	bowScore := 0.0
	sc.step.Reset()
	afterTo, afterDeterminer := false, false
	nw := ts.Words()
	tokens := nw // less the raw fields without a token
	for i := 0; i < nw; i++ {
		lower, key := ts.Lower(i), ts.Key(i)
		if len(lower) == 0 {
			// A raw field without a letter or digit is no token; only the
			// sentiment step sees it, as a possible emoticon (":)").
			tokens--
			sc.sentimentStep(snap, i, key, 0)
			continue
		}
		info := snap.lookup(lower)
		if info&infoSwear != 0 {
			swears++
		}
		if info&infoBoW != 0 {
			bowScore++
		}
		if len(key) != len(lower) {
			info = snap.lookup(key)
		}

		tag, closed := info.tag()
		if !closed {
			tag = pos.TagOpenLower(key, afterTo, afterDeterminer)
		}
		switch tag {
		case pos.Adjective:
			adjectives++
		case pos.Adverb:
			adverbs++
		case pos.Verb:
			verbs++
		}
		afterTo, afterDeterminer = string(key) == "to", tag == pos.Determiner

		sc.sentimentStep(snap, i, key, info)
	}

	if tokens == 0 {
		x[MeanWordLength] = 0
	} else {
		x[MeanWordLength] = float64(st.LetterSum) / float64(tokens)
	}
	if st.Sentences == 0 {
		x[WordsPerSentence] = 0
	} else {
		x[WordsPerSentence] = float64(st.SentenceWords) / float64(st.Sentences)
	}
	x[CntAdjectives] = float64(adjectives)
	x[CntAdverbs] = float64(adverbs)
	x[CntVerbs] = float64(verbs)

	score := sc.step.Finish(st.Exclaims)
	x[SentimentScorePos] = float64(score.Positive)
	x[SentimentScoreNeg] = float64(score.Negative)

	x[CntSwearWords] = float64(swears)
	x[BoWScore] = bowScore
}

// sentimentStep folds word i of the scanned text, whose key and table
// entry the caller already holds, into the sentiment stepper.
//
//redvet:noalloc gate=FeaturePathFast
func (sc *extractScratch) sentimentStep(snap *bowSnapshot, i int, key []byte, info wordInfo) {
	if info&infoEmoticon != 0 || len(key) == 0 {
		//redvet:ignore noalloc a map lookup keyed by string(bytes) does not materialize the string; only words keyed like an emoticon, or without a letter, get here
		if v, ok := emoticons[string(sc.ts.Clean(i))]; ok {
			sc.step.Score(v)
			return
		}
		if len(key) == 0 {
			return // nothing for the lexicon to score
		}
	}
	// Sentiment keys on the apostrophe-free word ("don't" -> "dont").
	word := key
	letters, uppers, elongated, apostrophe := sc.ts.WordInfo(i)
	if apostrophe {
		sc.alt = sc.alt[:0]
		for _, c := range key {
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
