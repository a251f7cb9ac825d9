package feature

import (
	"redhanded/internal/text"
	"redhanded/internal/text/lexicon"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// Config selects the extraction options the paper's experiments toggle.
type Config struct {
	// Preprocess applies the cleaning step before token-based features
	// (p=ON/OFF in the figures).
	Preprocess bool
	// BoW configures the adaptive bag-of-words; set BoW.Frozen for the
	// fixed-BoW baseline (ad=OFF).
	BoW BoWConfig
	// CacheEntries sizes the content-addressed extraction cache (see
	// cache.go); <= 0 disables it, which is the default so existing
	// construction sites keep their exact behavior.
	CacheEntries int
}

// DefaultConfig enables preprocessing and the adaptive BoW.
func DefaultConfig() Config {
	return Config{Preprocess: true, BoW: DefaultBoWConfig()}
}

// Extractor turns tweets into fixed-length feature vectors. Extraction is
// safe for concurrent use; Learn serializes internally.
type Extractor struct {
	cfg       Config
	cleanOpts text.CleanOptions
	// sentOpts strips tweet entities but keeps punctuation, so sentence
	// boundaries survive while URL dots stop creating fake ones.
	sentOpts  text.CleanOptions
	tagger    *pos.Tagger
	sentiment *sentiment.Analyzer
	bow       *AdaptiveBoW
	// cache memoizes text-derived feature slots per (text, BoW version);
	// nil when Config.CacheEntries <= 0.
	cache *extractCache
}

// NewExtractor creates an extractor with the given options.
func NewExtractor(cfg Config) *Extractor {
	var cache *extractCache
	if cfg.CacheEntries > 0 && cfg.Preprocess {
		cache = newExtractCache(cfg.CacheEntries)
	}
	return &Extractor{
		cache:     cache,
		cfg:       cfg,
		cleanOpts: text.DefaultCleanOptions(),
		sentOpts: text.CleanOptions{
			RemoveURLs:          true,
			RemoveMentions:      true,
			RemoveHashtags:      true,
			RemoveAbbreviations: true,
			CondenseWhitespace:  true,
		},
		tagger:    pos.New(),
		sentiment: sentiment.New(),
		bow:       NewAdaptiveBoW(cfg.BoW),
	}
}

// BoW exposes the adaptive bag-of-words (for Fig. 10 and the pipeline's
// training step).
func (e *Extractor) BoW() *AdaptiveBoW { return e.bow }

// Extract computes the feature vector for one tweet, allocating the
// result. Hot paths use ExtractInto with a pooled vector (see pool.go);
// both run the same single-pass fast path.
func (e *Extractor) Extract(tw *twitterdata.Tweet) []float64 {
	return e.ExtractInto(make([]float64, NumFeatures), tw)
}

// LookupCached serves dst from the extraction cache when the exact
// (text, BoW snapshot version) pair is resident: cached text-feature slots
// are copied in and the per-user profile slots recomputed, so the result
// is bit-for-bit what ExtractInto would produce. Returns false (leaving
// dst untouched) when the cache is disabled, dst is mis-sized, or the
// entry is absent/stale. Lock-free.
//
//redvet:noalloc gate=FeatCacheLookup
func (e *Extractor) LookupCached(dst []float64, tw *twitterdata.Tweet) bool {
	if e.cache == nil || len(dst) != NumFeatures {
		return false
	}
	snap := e.bow.lookupSnapshot()
	if !e.cache.lookup(dst, tw.Text, snap.version) {
		return false
	}
	e.fillProfile(dst, tw)
	return true
}

// fillProfile recomputes the per-user profile slots a cache hit cannot
// serve.
//
//redvet:noalloc gate=FeatCacheLookup
func (e *Extractor) fillProfile(x []float64, tw *twitterdata.Tweet) {
	x[AccountAge] = tw.AccountAgeDays()
	x[CntPosts] = float64(tw.User.StatusesCount)
	x[CntLists] = float64(tw.User.ListedCount)
	x[CntFollowers] = float64(tw.User.FollowersCount)
	x[CntFriends] = float64(tw.User.FriendsCount)
}

// ExtractAndCache extracts freshly (exactly like ExtractInto) and admits
// the resulting vector into the cache under the snapshot version it was
// computed against. Admission clones the text and allocates an entry, so
// this is deliberately not part of the zero-alloc lookup gate; callers pair
// it with LookupCached, paying admission cost only on misses.
func (e *Extractor) ExtractAndCache(dst []float64, tw *twitterdata.Tweet) []float64 {
	if e.cache == nil || !e.cfg.Preprocess {
		return e.ExtractInto(dst, tw)
	}
	if len(dst) != NumFeatures {
		dst = make([]float64, NumFeatures)
	}
	snap := e.bow.lookupSnapshot()
	sc := extractPool.Get().(*extractScratch)
	e.extractFast(dst, tw, sc, snap)
	extractPool.Put(sc)
	e.cache.insert(tw.Text, snap.version, dst)
	return dst
}

// ExtractCachedInto is the composed cache-aware extraction: hit or
// extract-and-admit.
func (e *Extractor) ExtractCachedInto(dst []float64, tw *twitterdata.Tweet) []float64 {
	if e.LookupCached(dst, tw) {
		return dst
	}
	return e.ExtractAndCache(dst, tw)
}

// CacheStats returns the extraction-cache counters (zero value when the
// cache is disabled).
func (e *Extractor) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// extractLegacyInto is the original multi-pass implementation: Clean +
// Tokenize + per-feature passes, each allocating intermediate strings and
// slices. It stays byte-for-byte intact for two reasons: it serves the
// Preprocess=OFF configuration (whose raw-text tokenization the fast path
// does not model), and it is the reference the golden and fuzz equivalence
// tests compare the fast path against.
func (e *Extractor) extractLegacyInto(x []float64, tw *twitterdata.Tweet) {
	// Profile and network features come from the user payload.
	x[AccountAge] = tw.AccountAgeDays()
	x[CntPosts] = float64(tw.User.StatusesCount)
	x[CntLists] = float64(tw.User.ListedCount)
	x[CntFollowers] = float64(tw.User.FollowersCount)
	x[CntFriends] = float64(tw.User.FriendsCount)

	// Basic text features are counted on the raw text (preprocessing
	// removes exactly the tokens they count).
	raw := tw.Text
	x[NumHashtags] = float64(text.CountTokenKind(raw, text.IsHashtagToken))
	x[NumURLs] = float64(text.CountTokenKind(raw, text.IsURLToken))
	x[NumUpperCases] = float64(text.CountUpperWords(raw))

	// Remaining text features operate on the (optionally) cleaned text.
	body := raw
	if e.cfg.Preprocess {
		body = text.Clean(raw, e.cleanOpts)
	}
	tokens := text.Tokenize(body)
	x[MeanWordLength] = text.MeanWordLength(tokens)
	x[WordsPerSentence] = e.wordsPerSentence(raw, len(tokens))

	counts := e.tagger.Count(tokens)
	x[CntAdjectives] = float64(counts.Adjectives)
	x[CntAdverbs] = float64(counts.Adverbs)
	x[CntVerbs] = float64(counts.Verbs)

	score := e.sentiment.Analyze(body)
	x[SentimentScorePos] = float64(score.Positive)
	x[SentimentScoreNeg] = float64(score.Negative)

	x[CntSwearWords] = float64(lexicon.CountSwears(tokens))
	x[BoWScore] = e.bow.Score(tokens)
}

// wordsPerSentence computes the mean sentence length. With preprocessing
// on, sentence boundaries come from entity-stripped text (URL dots would
// otherwise fabricate boundaries) and word counts from the fully cleaned
// tokens; with preprocessing off, the raw text is used for both — one of
// the noise sources that makes p=OFF less stable in Fig. 6.
func (e *Extractor) wordsPerSentence(raw string, tokenCount int) float64 {
	if !e.cfg.Preprocess {
		return text.WordsPerSentence(raw)
	}
	sentences := text.SplitSentences(text.Clean(raw, e.sentOpts))
	if len(sentences) == 0 {
		return 0
	}
	return float64(tokenCount) / float64(len(sentences))
}

// Learn updates the adaptive bag-of-words with a labeled tweet. Aggressive
// covers the abusive and hateful labels, per §IV-B. The production
// configuration feeds the BoW the scanner's lowered words; only the
// Preprocess=OFF ablation, whose raw tokens the scanner does not produce,
// goes through the allocating Tokenize path.
func (e *Extractor) Learn(tw *twitterdata.Tweet) {
	if !tw.IsLabeled() {
		return
	}
	aggressive := tw.Label == twitterdata.LabelAbusive || tw.Label == twitterdata.LabelHateful
	if e.cfg.Preprocess {
		sc := extractPool.Get().(*extractScratch)
		sc.ts.Scan(tw.Text)
		e.bow.learnScanned(&sc.ts, aggressive)
		extractPool.Put(sc)
		return
	}
	e.bow.Learn(text.Tokenize(tw.Text), aggressive)
}
