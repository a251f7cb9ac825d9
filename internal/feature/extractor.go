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
	return Config{Preprocess: true}
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

// TextKey is a tweet text's extraction-cache hash. Lookup returns it, so
// that the extraction after a miss offers its vector under it without
// hashing the text a second time.
type TextKey uint64

// Lookup serves dst from the extraction cache when the exact (text, BoW
// snapshot version) pair is resident: cached text-feature slots are copied
// in and the per-user profile slots recomputed, so the result is
// bit-for-bit what ExtractInto would produce. It reports a miss (leaving
// dst untouched) when the cache is disabled, dst is mis-sized, or the entry
// is absent/stale, and returns the text's key for ExtractAndCache or
// ExtractAndKeepScan. Lock-free.
//
//redvet:noalloc gate=FeatCacheLookup
func (e *Extractor) Lookup(dst []float64, tw *twitterdata.Tweet) (TextKey, bool) {
	if e.cache == nil {
		return 0, false
	}
	h := textHash(tw.Text)
	if len(dst) != NumFeatures || !e.cache.lookup(dst, tw.Text, h, e.bow.lookupSnapshot().version) {
		return TextKey(h), false
	}
	e.fillProfile(dst, tw)
	return TextKey(h), true
}

// LookupCached is Lookup for a caller that extracts nothing on a miss.
//
//redvet:noalloc gate=FeatCacheLookup
func (e *Extractor) LookupCached(dst []float64, tw *twitterdata.Tweet) bool {
	_, hit := e.Lookup(dst, tw)
	return hit
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

// ExtractAndCache extracts freshly (exactly like ExtractInto) and offers
// the resulting vector to the cache, under key, the text's key from the
// Lookup that missed, and the snapshot version it was computed against. A
// text's first sighting only records its hash; the second admits it, which
// clones the text and allocates an entry, so this is deliberately not part
// of the zero-alloc lookup gate. Callers pair it with Lookup, paying
// admission cost only on repeated misses.
func (e *Extractor) ExtractAndCache(dst []float64, tw *twitterdata.Tweet, key TextKey) []float64 {
	if len(dst) != NumFeatures {
		dst = make([]float64, NumFeatures)
	}
	sc := extractPool.Get().(*extractScratch)
	e.extractAndCache(dst, tw, key, sc)
	extractPool.Put(sc)
	return dst
}

// extractAndCache extracts into dst, NumFeatures long, with sc's scanner
// and offers the vector to the cache; sc holds the tweet's scan afterwards.
func (e *Extractor) extractAndCache(dst []float64, tw *twitterdata.Tweet, key TextKey, sc *extractScratch) {
	snap := e.bow.lookupSnapshot()
	e.extractFast(dst, tw, sc, snap)
	if e.cache != nil {
		e.cache.insert(tw.Text, uint64(key), snap.version, dst)
	}
}

// Scan is a tweet's tokenization kept from its extraction, so that the
// BoW learns a labeled tweet without scanning its text a second time. It
// holds a pooled scratch, which LearnScan returns to the pool.
type Scan extractScratch

// ExtractAndKeepScan is ExtractAndCache for a tweet about to be learned: it
// extracts into dst and returns the scan for LearnScan, or nil when the
// BoW is frozen and learning reads nothing.
func (e *Extractor) ExtractAndKeepScan(dst *Vec, tw *twitterdata.Tweet, key TextKey) *Scan {
	sc := extractPool.Get().(*extractScratch)
	e.extractAndCache(dst[:], tw, key, sc)
	if !e.bow.learns() {
		extractPool.Put(sc)
		return nil
	}
	return (*Scan)(sc)
}

// ExtractCachedInto is the composed cache-aware extraction: hit or
// extract-and-offer (see ExtractAndCache).
func (e *Extractor) ExtractCachedInto(dst []float64, tw *twitterdata.Tweet) []float64 {
	key, hit := e.Lookup(dst, tw)
	if hit {
		return dst
	}
	return e.ExtractAndCache(dst, tw, key)
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
func (e *Extractor) Learn(tw *twitterdata.Tweet) { e.LearnScan(tw, nil) }

// LearnScan is Learn reading the words from sc, the scan
// ExtractAndKeepScan kept for the same tweet, and releases sc. A nil sc
// scans the text, unless the tweet is unlabeled or the BoW frozen. The
// scan is a pure function of the text and the spec, so both ways learn the
// same words.
func (e *Extractor) LearnScan(tw *twitterdata.Tweet, sc *Scan) {
	if sc == nil {
		if !tw.IsLabeled() || !e.bow.learns() {
			return
		}
		sc = (*Scan)(extractPool.Get().(*extractScratch))
		e.scan(&sc.ts, tw.Text)
	}
	if tw.IsLabeled() {
		aggressive := tw.Label == twitterdata.LabelAbusive || tw.Label == twitterdata.LabelHateful
		e.bow.learnScanned(&sc.ts, aggressive)
	}
	extractPool.Put((*extractScratch)(sc))
}
