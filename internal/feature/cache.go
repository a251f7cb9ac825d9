package feature

// Content-addressed extraction cache. Real aggression streams are heavily
// duplicated — retweets and copypasta routinely make up 25–40% of volume,
// and Terizi et al. show aggressive content is retweeted disproportionately
// — yet extraction cost is paid per tweet, not per distinct text. The cache
// memoizes the text-derived feature slots (indices profileFeatureCount..
// NumFeatures-1) keyed by (textHash(text), BoW snapshot version), so a
// duplicate tweet skips the whole scan/tag/sentiment/BoW pass.
//
// Correctness invariant (DESIGN.md invariant 9): a cache hit is
// bit-for-bit identical to a fresh extraction. Three mechanisms enforce it:
//
//   - Profile features (indices 0..profileFeatureCount-1) vary per user
//     even for identical text, so they are never served from the cache —
//     LookupCached recomputes them from the tweet on every hit.
//   - Text features depend on the BoW membership snapshot, so entries are
//     keyed by the snapshot's publication version; republication makes
//     every older entry unreachable (lazy invalidation — stale entries are
//     preferred eviction victims).
//   - hash collisions cannot alias: each entry stores its own copy of
//     the text and a hit requires exact string equality.
//
// Admission happens on a text's second sighting. The cache keeps a
// doorkeeper: a direct-mapped array of text hashes, twice its slot count,
// indexed by hash bits that set selection does not use. A miss whose hash
// is absent there only records it — one load and one store, no text copy,
// no entry — so unique traffic pays nothing to admit texts that never
// return. A miss whose hash is present admits. A second sighting is what
// predicts a third: Terizi et al. find aggressive content re-shared
// disproportionately. A hash overwritten in the doorkeeper only delays an
// admission, and a hit still requires the exact text.
//
// The cache keeps no lock: it belongs to one Extractor, whose owner calls
// it from one goroutine at a time (see Extractor).

import (
	"math/bits"
	"strings"
)

const (
	// cacheWays is the set associativity: a text can live in any of 4
	// slots of its set, so unlucky hash neighborhoods degrade gracefully.
	cacheWays = 4
	// cacheGroupBits: hash bits 48-50 pick one of eight groups of sets,
	// and the low bits a set within the group. This is the mapping of the
	// eight-shard layout the one table replaced, so eviction order and
	// every counter equal that layout's on any stream
	// (internal/core/testdata/parent_cache.golden).
	cacheGroupBits = 3
)

// cacheEntry is immutable once inserted except for the CLOCK ref bit.
type cacheEntry struct {
	hash    uint64
	version uint64 // BoW snapshot version the vector was extracted under
	text    string // owned copy; exact-match guard against hash collisions
	vec     Vec
	ref     bool // CLOCK second-chance bit
}

// extractCache is a bounded, set-associative, content-addressed Vec cache.
type extractCache struct {
	slots    []*cacheEntry // sets × cacheWays
	hands    []uint8       // per-set CLOCK hand
	door     []uint64      // doorkeeper: hashes sighted once, 2 × len(slots)
	setBits  uint          // log2 of the sets per group
	doorBits uint          // log2 of the doorkeeper slots per group

	hits, misses, evicts int64
	entries              int // occupied slots
}

// textHash is the cache key's hash of a text: eight bytes per
// multiply-rotate step, the last 1-7 bytes folded into one word, the
// length mixed in, and murmur3's fmix64 finalizer so that every output bit
// depends on every input bit. Set selection uses bits 48 and up for the
// group and the low bits within it, and the doorkeeper the bits just above
// those, so the indices stay independent. It has no per-process seed, unlike
// hash/maphash: eviction order and the hit counters are the same on every
// run. Each step is a bijection of the running state for a fixed word, so
// two texts of one length that differ only in their last word never
// collide.
//
//redvet:noalloc gate=FeatCacheLookup
func textHash(s string) uint64 {
	const (
		k1 = 0x9e3779b97f4a7c15
		k2 = 0xc2b2ae3d27d4eb4f
	)
	h := uint64(len(s)) * k1
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = bits.RotateLeft64(h^w*k2, 31) * k1
	}
	if i < len(s) {
		var w uint64
		for j := len(s) - 1; j >= i; j-- {
			w = w<<8 | uint64(s[j])
		}
		h = bits.RotateLeft64(h^w*k2, 31) * k1
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newExtractCache builds a cache holding at least entries vectors (rounded
// up to a power-of-two set count per group).
func newExtractCache(entries int) *extractCache {
	const groups = 1 << cacheGroupBits
	perGroup := (entries + groups*cacheWays - 1) / (groups * cacheWays)
	sets := 1
	for sets < perGroup {
		sets <<= 1
	}
	slots := groups * sets * cacheWays
	return &extractCache{
		slots:    make([]*cacheEntry, slots),
		hands:    make([]uint8, groups*sets),
		door:     make([]uint64, 2*slots),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		doorBits: uint(bits.TrailingZeros(uint(2 * sets * cacheWays))),
	}
}

// group returns h's set group, from hash bits 48 and up.
func group(h uint64) uint64 { return h >> 48 & (1<<cacheGroupBits - 1) }

// set returns the index of h's set: its group, then the hash's low bits.
//
//redvet:noalloc gate=FeatCacheLookup
func (c *extractCache) set(h uint64) uint64 {
	return group(h)<<c.setBits | h&(1<<c.setBits-1)
}

// lookup copies the cached text-feature slots into dst on a hit for the
// exact (text, version) pair; h is textHash(txt).
//
//redvet:noalloc gate=FeatCacheLookup
func (c *extractCache) lookup(dst []float64, txt string, h, version uint64) bool {
	base := c.set(h) * cacheWays
	for _, e := range c.slots[base : base+cacheWays] {
		if e == nil || e.hash != h || e.version != version || e.text != txt {
			continue
		}
		e.ref = true
		copy(dst[profileFeatureCount:], e.vec[profileFeatureCount:])
		c.hits++
		return true
	}
	c.misses++
	return false
}

// insert stores a freshly extracted vector for (txt, version) if the
// doorkeeper has sighted txt before, and otherwise only records its hash h,
// textHash(txt) as the lookup that missed computed it. The text is cloned
// so the cache never pins a decoder arena chunk. Victim choice: an empty
// slot, else a stale-version slot, else per-set CLOCK second-chance.
func (c *extractCache) insert(txt string, h, version uint64, src []float64) {
	// The doorkeeper slot: h's group, then the hash bits above the set bits.
	seen := &c.door[group(h)<<c.doorBits|h>>c.setBits&(1<<c.doorBits-1)]
	if *seen != h {
		*seen = h
		return
	}
	set := c.set(h)
	ways := c.slots[set*cacheWays:][:cacheWays]
	victim := -1
	for i, cur := range ways {
		if cur == nil {
			if victim < 0 {
				victim = i
			}
			continue
		}
		if cur.hash == h && cur.version == version && cur.text == txt {
			return // resident already
		}
		if cur.version != version {
			victim = i
		}
	}
	if victim < 0 {
		hand := int(c.hands[set])
		for spins := 0; spins < cacheWays*2; spins++ {
			if cur := ways[hand]; cur == nil || !cur.ref {
				victim = hand
				break
			}
			ways[hand].ref = false
			hand = (hand + 1) % cacheWays
		}
		if victim < 0 {
			victim = hand
		}
		c.hands[set] = uint8((victim + 1) % cacheWays)
	}
	if ways[victim] == nil {
		c.entries++
	} else {
		c.evicts++
	}
	e := &cacheEntry{hash: h, version: version, text: strings.Clone(txt)}
	copy(e.vec[:], src)
	ways[victim] = e
}

// CacheStats aggregates the cache counters for /v1/stats and /metrics.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Entries is the current live slot count; Capacity the slot total.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

func (c *extractCache) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evicts, Entries: c.entries, Capacity: len(c.slots)}
}
