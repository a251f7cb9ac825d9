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
// Admission happens on a text's second sighting. Each shard keeps a
// doorkeeper: a direct-mapped array of text hashes, twice its slot count,
// indexed by hash bits that shard and set selection do not use. A miss whose
// hash is absent there only records it — one atomic load and one store, no
// lock, no text copy, no entry — so unique traffic pays nothing to admit
// texts that never return. A miss whose hash is present admits. A second
// sighting is what predicts a third: Terizi et al. find aggressive content
// re-shared disproportionately. Doorkeeper races are benign: a lost or
// overwritten hash only delays an admission, and a hit still requires the
// exact text.
//
// Concurrency: reads are lock-free — slots are atomic.Pointer values and
// entries are immutable after publication (except the CLOCK reference
// bit). Inserts take a per-shard mutex, re-check for duplicates, and evict
// with per-set CLOCK second-chance, mirroring the userstate idiom.

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// cacheWays is the set associativity: a text can live in any of 4
	// slots of its set, so unlucky hash neighborhoods degrade gracefully.
	cacheWays = 4
	// defaultCacheShards spreads insert mutexes; reads never contend.
	defaultCacheShards = 8
)

// cacheEntry is immutable after publication except for the CLOCK ref bit.
type cacheEntry struct {
	hash    uint64
	version uint64 // BoW snapshot version the vector was extracted under
	text    string // owned copy; exact-match guard against hash collisions
	vec     Vec
	ref     atomic.Bool // CLOCK second-chance bit
}

type cacheShard struct {
	mu    sync.Mutex
	slots []atomic.Pointer[cacheEntry] // sets × cacheWays
	hands []uint8                      // per-set CLOCK hand, guarded by mu
	mask  uint64                       // sets - 1

	door      []atomic.Uint64 // doorkeeper: hashes sighted once, 2 × len(slots)
	doorShift uint            // skips the set-index bits

	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// extractCache is a bounded, sharded, content-addressed Vec cache.
type extractCache struct {
	shards []cacheShard
	mask   uint64 // len(shards) - 1
}

// textHash is the cache key's hash of a text: eight bytes per
// multiply-rotate step, the last 1-7 bytes folded into one word, the
// length mixed in, and murmur3's fmix64 finalizer so that every output bit
// depends on every input bit. Shard selection uses bits 48 and up, set
// selection the low bits and the doorkeeper the bits just above those, so
// the three indices stay independent. It has no per-process seed, unlike
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
// up to a power-of-two set count per shard).
func newExtractCache(entries int) *extractCache {
	shards := defaultCacheShards
	perShard := (entries + shards*cacheWays - 1) / (shards * cacheWays)
	sets := 1
	for sets < perShard {
		sets <<= 1
	}
	c := &extractCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.slots = make([]atomic.Pointer[cacheEntry], sets*cacheWays)
		sh.hands = make([]uint8, sets)
		sh.mask = uint64(sets - 1)
		sh.door = make([]atomic.Uint64, 2*len(sh.slots))
		sh.doorShift = uint(bits.Len64(sh.mask))
	}
	return c
}

// lookup copies the cached text-feature slots into dst on a hit for the
// exact (text, version) pair; h is textHash(txt). Lock-free: one pointer
// load per way.
//
//redvet:noalloc gate=FeatCacheLookup
func (c *extractCache) lookup(dst []float64, txt string, h, version uint64) bool {
	sh := &c.shards[(h>>48)&c.mask]
	base := (h & sh.mask) * cacheWays
	for i := uint64(0); i < cacheWays; i++ {
		e := sh.slots[base+i].Load()
		if e == nil || e.hash != h || e.version != version || e.text != txt {
			continue
		}
		if !e.ref.Load() {
			// Store only on a change: a locked write on every hit
			// would bounce the entry's cache line between readers.
			e.ref.Store(true)
		}
		copy(dst[profileFeatureCount:], e.vec[profileFeatureCount:])
		sh.hits.Add(1)
		return true
	}
	sh.misses.Add(1)
	return false
}

// insert publishes a freshly extracted vector for (txt, version) if the
// doorkeeper has sighted txt before, and otherwise only records its hash h,
// textHash(txt) as the lookup that missed computed it. The text is cloned
// so the cache never pins a decoder arena chunk. Victim choice: an empty
// slot, else a stale-version slot, else per-set CLOCK second-chance.
func (c *extractCache) insert(txt string, h, version uint64, src []float64) {
	sh := &c.shards[(h>>48)&c.mask]
	if seen := &sh.door[(h>>sh.doorShift)&uint64(len(sh.door)-1)]; seen.Load() != h {
		seen.Store(h)
		return
	}
	set := h & sh.mask
	base := set * cacheWays

	e := &cacheEntry{hash: h, version: version, text: strings.Clone(txt)}
	copy(e.vec[:], src)

	sh.mu.Lock()
	victim := -1
	for i := uint64(0); i < cacheWays; i++ {
		cur := sh.slots[base+i].Load()
		if cur == nil {
			if victim < 0 {
				victim = int(i)
			}
			continue
		}
		if cur.hash == h && cur.version == version && cur.text == e.text {
			// Raced with another inserter; the published entry wins.
			sh.mu.Unlock()
			return
		}
		if cur.version != version {
			victim = int(i)
		}
	}
	if victim < 0 {
		hand := int(sh.hands[set])
		for spins := 0; spins < cacheWays*2; spins++ {
			cur := sh.slots[base+uint64(hand)].Load()
			if cur == nil || !cur.ref.Load() {
				victim = hand
				break
			}
			cur.ref.Store(false)
			hand = (hand + 1) % cacheWays
		}
		if victim < 0 {
			victim = hand
		}
		sh.hands[set] = uint8((victim + 1) % cacheWays)
	}
	if sh.slots[base+uint64(victim)].Load() != nil {
		sh.evicts.Add(1)
	}
	sh.slots[base+uint64(victim)].Store(e)
	sh.mu.Unlock()
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
	var s CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evicts.Load()
		s.Capacity += len(sh.slots)
		for j := range sh.slots {
			if sh.slots[j].Load() != nil {
				s.Entries++
			}
		}
	}
	return s
}
