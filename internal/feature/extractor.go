package feature

import "redhanded/internal/twitterdata"

// Config selects the extraction options the paper's experiments toggle.
type Config struct {
	// Preprocess selects the scanner's tokenization spec (p=ON/OFF in the
	// figures): the cleaning step — entity fields dropped, words reduced to
	// their letters — or the raw fields (see package text).
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
	cfg Config
	bow *AdaptiveBoW
	// cache memoizes text-derived feature slots per (text, BoW version);
	// nil when Config.CacheEntries <= 0.
	cache *extractCache
}

// NewExtractor creates an extractor with the given options.
func NewExtractor(cfg Config) *Extractor {
	var cache *extractCache
	if cfg.CacheEntries > 0 {
		cache = newExtractCache(cfg.CacheEntries)
	}
	return &Extractor{cache: cache, cfg: cfg, bow: NewAdaptiveBoW(cfg.BoW)}
}

// BoW exposes the adaptive bag-of-words (for Fig. 10 and the pipeline's
// training step).
func (e *Extractor) BoW() *AdaptiveBoW { return e.bow }

// Extract computes the feature vector for one tweet, allocating the
// result. Hot paths use ExtractInto with a pooled vector (see pool.go);
// both run the same single-pass extraction.
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
	if e.cache == nil {
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

// Learn updates the adaptive bag-of-words with a labeled tweet. Aggressive
// covers the abusive and hateful labels, per §IV-B. The BoW learns the
// scanned words' lowered forms, the keys extraction looks it up by.
func (e *Extractor) Learn(tw *twitterdata.Tweet) {
	if !tw.IsLabeled() {
		return
	}
	aggressive := tw.Label == twitterdata.LabelAbusive || tw.Label == twitterdata.LabelHateful
	sc := extractPool.Get().(*extractScratch)
	e.scan(&sc.ts, tw.Text)
	e.bow.learnScanned(&sc.ts, aggressive)
	extractPool.Put(sc)
}
