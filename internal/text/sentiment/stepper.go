package sentiment

import (
	"maps"
	"unicode/utf8"
)

// Word is everything the lexicon knows about one normalized word
// (lowercased, apostrophes removed). The zero value is a word without
// sentiment meaning.
type Word struct {
	Negator  bool
	Boost    int // booster adjustment; 0 when the word is not a booster
	Strength int // base term strength; 0 when the word is not a sentiment term
}

// Words returns the merged view of the negator, booster and term lists. The
// feature package folds it into its fused per-token lookup table, so the
// fast path resolves a token's Word without probing the three maps.
func Words() map[string]Word {
	out := make(map[string]Word, len(lexicon))
	for w, v := range lexicon {
		out[w] = Word{Strength: v}
	}
	for w, b := range boosters {
		e := out[w]
		e.Boost = b
		out[w] = e
	}
	for w := range negators {
		e := out[w]
		e.Negator = true
		out[w] = e
	}
	return out
}

// Emoticons returns the emoticons ("xD", ":)", "<3", ...) with their
// strengths. An emoticon matches a whole field, case preserved, and its
// strength scores in place of the field's word.
func Emoticons() map[string]int { return maps.Clone(emoticons) }

// Stepper scores one text without allocating: the caller resolves each
// word to its Word (or emoticon strength) and the stepper carries the
// booster/negator state between words. The feature package's reference
// tests pin it to the word-by-word analyzer it replaced.
//
// A Stepper is not safe for concurrent use. Reset it before each text.
type Stepper struct {
	maxPos, maxNeg int
	boost          int
	negate         bool
}

// Reset prepares the stepper for a new text.
//
//redvet:noalloc gate=FeaturePathFast
func (st *Stepper) Reset() {
	st.maxPos, st.maxNeg = 1, -1
	st.boost, st.negate = 0, false
}

// Step folds one word into the running score. A word on several lists
// acts as the first of negator, booster, term. shout means the word has at
// least two letters, all uppercase, and long that it holds a rune repeated
// three times in a row; for a long word that is on no list the caller
// passes the Strength of its Squeeze form instead.
//
//redvet:noalloc gate=FeaturePathFast
func (st *Stepper) Step(w Word, shout, long bool) {
	switch {
	case w.Negator:
		st.negate = true
	case w.Boost != 0:
		st.boost += w.Boost
	case w.Strength == 0:
		st.boost, st.negate = 0, false
	default:
		mag := abs(w.Strength) + st.boost
		if long {
			mag++
		}
		if shout {
			mag++
		}
		mag = clamp(mag, 1, 5)
		sg := sign(w.Strength)
		if st.negate {
			sg = -sg
			mag = clamp(mag-1, 1, 5)
		}
		st.Score(sg * mag)
	}
}

// Score folds one scored token — an emoticon's strength, or a term's after
// its modifiers — into the running score: the strongest value of each
// polarity is kept and the modifier state cleared.
//
//redvet:noalloc gate=FeaturePathFast
func (st *Stepper) Score(v int) {
	if v > st.maxPos {
		st.maxPos = v
	}
	if v < st.maxNeg {
		st.maxNeg = v
	}
	st.boost, st.negate = 0, false
}

// Finish applies the exclamation-mark emphasis (the count of '!' in the
// text) and returns the score. A preprocessed text has no '!' left, so
// under p=ON the extractor passes 0.
func (st *Stepper) Finish(exclaims int) Score {
	maxPos, maxNeg := st.maxPos, st.maxNeg
	if exclaims > 0 {
		bump := 1
		if exclaims >= 3 {
			bump = 2
		}
		if -maxNeg >= maxPos && maxNeg < -1 {
			maxNeg = clamp(maxNeg-bump, -5, -1)
		} else if maxPos > 1 {
			maxPos = clamp(maxPos+bump, 1, 5)
		}
	}
	return Score{Positive: maxPos, Negative: maxNeg}
}

// Squeeze appends the de-elongated form of w, every run of a rune
// collapsed to one ("coooool" -> "col"), to dst.
//
//redvet:noalloc gate=FeaturePathFast
func Squeeze(dst, w []byte) []byte {
	var prev rune = -1
	for i := 0; i < len(w); {
		r, sz := utf8.DecodeRune(w[i:])
		if r != prev {
			dst = append(dst, w[i:i+sz]...)
		}
		prev = r
		i += sz
	}
	return dst
}
