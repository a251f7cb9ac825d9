package feature

import (
	"cmp"
	"sort"
	"strings"

	"redhanded/internal/text"
	"redhanded/internal/text/lexicon"
)

// BoWConfig tunes the adaptive bag-of-words.
type BoWConfig struct {
	// Frozen disables adaptation: the BoW stays at the seed list. This is
	// the paper's "fixed bag-of-words" baseline (ad=OFF in the figures).
	Frozen bool

	// updateEvery and decay replace bowUpdateEvery and bowDecay when
	// non-zero; only in-package tests set them.
	updateEvery int
	decay       float64
}

// The adaptive BoW's fixed tuning. Every bowUpdateEvery labeled tweets an
// enhancement round runs ("periodically enhanced based on tweet content"):
// a word enters when its per-tweet rate in aggressive tweets is at least
// bowMinAggressiveRate and bowMinRatio times its rate in normal ones; then
// both rolling tables decay by bowDecay, so the BoW tracks current
// vocabulary rather than all history, and are cut to bowMaxVocab words
// (the memory bound).
const (
	bowUpdateEvery       = 500
	bowMinAggressiveRate = 0.005
	bowMinRatio          = 3
	bowDecay             = 0.996
	bowMaxVocab          = 50000
)

func (c BoWConfig) withDefaults() BoWConfig {
	c.updateEvery = cmp.Or(c.updateEvery, bowUpdateEvery)
	c.decay = cmp.Or(c.decay, bowDecay)
	return c
}

// wordCount is one word's decayed per-tweet presence count.
type wordCount struct {
	n float64
	// seen is the sequence number of the last tweet that counted the word,
	// which makes counting per-tweet presence without a per-tweet set.
	seen uint64
}

// wordTable is a decayed word-frequency table for one side (aggressive or
// normal tweets). Counters are pointers so that bumping a known word from
// the scanner's byte tokens neither allocates a key nor re-inserts it.
type wordTable struct {
	counts map[string]*wordCount
	tweets float64
	seq    uint64 // tweets observed; never decayed
}

func newWordTable() *wordTable {
	return &wordTable{counts: make(map[string]*wordCount)}
}

// begin opens the next tweet.
func (t *wordTable) begin() {
	t.tweets++
	t.seq++
}

// bump counts one lowered token of the current tweet: once per tweet
// however often it occurs (per-tweet presence), and not at all when it is
// shorter than two bytes.
func (t *wordTable) bump(tok []byte) {
	if len(tok) < 2 {
		return
	}
	c := t.counts[string(tok)]
	if c == nil {
		c = new(wordCount)
		t.counts[string(tok)] = c
	}
	if c.seen != t.seq {
		c.seen = t.seq
		c.n++
	}
}

// rate returns the fraction of tweets containing the word.
func (t *wordTable) rate(w string) float64 {
	c := t.counts[w]
	if c == nil || t.tweets == 0 {
		return 0
	}
	return c.n / t.tweets
}

func (t *wordTable) decay(factor float64) {
	t.tweets *= factor
	for w, c := range t.counts {
		c.n *= factor
		if c.n < 0.05 {
			delete(t.counts, w)
		}
	}
}

// prune drops the lowest-count words until the table fits maxVocab. Decayed
// counts tie often (every word first seen in the same round holds the same
// value), so ties keep the words that sort first: the survivors depend on
// the counts alone, not on map iteration order, and a restored checkpoint
// prunes as the uninterrupted run does.
func (t *wordTable) prune(maxVocab int) {
	if len(t.counts) <= maxVocab {
		return
	}
	type wc struct {
		w string
		c float64
	}
	all := make([]wc, 0, len(t.counts))
	for w, c := range t.counts {
		all = append(all, wc{w, c.n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	for _, e := range all[maxVocab:] {
		delete(t.counts, e.w)
	}
}

// flat and setFlat convert to and from the checkpoint form of the counts.
func (t *wordTable) flat() map[string]float64 {
	out := make(map[string]float64, len(t.counts))
	for w, c := range t.counts {
		out[w] = c.n
	}
	return out
}

func (t *wordTable) setFlat(counts map[string]float64) {
	t.counts = make(map[string]*wordCount, len(counts))
	for w, n := range counts {
		t.counts[w] = &wordCount{n: n}
	}
}

// AdaptiveBoW is the adaptive bag-of-words feature of §IV-B: it starts
// from the 347-entry swear-word seed list, tracks rolling word statistics
// for aggressive (abusive or hateful) and normal tweets, adds words that
// occur frequently in aggressive tweets but not in normal ones, and drops
// learned words that become popular in normal tweets while losing traction
// in aggressive ones. Seed words are permanent.
//
// AdaptiveBoW keeps no lock. It belongs to one Extractor, and through it to
// one pipeline, whose lock serializes learning and republication against
// every reader; concurrent extraction is safe while nothing learns or
// calls SetWords (see Extractor).
type AdaptiveBoW struct {
	cfg         BoWConfig
	words       map[string]bool
	seed        map[string]bool
	aggressive  *wordTable
	normal      *wordTable
	sinceUpdate int
	additions   int
	removals    int

	// snap is the view the extraction fast path scores against: the fused
	// word table, rebuilt whenever the vocabulary changes, so per-tweet
	// scoring does no map hashing. snapVersion numbers its publications.
	snap        *bowSnapshot
	snapVersion uint64
}

// bowSnapshot is one immutable publication of the fused word table (see
// fusedtable.go): the static word lists with this vocabulary's membership
// overlaid. Vocabulary mutations build a fresh table; an extraction reads
// the pointer once per tweet and probes.
type bowSnapshot struct {
	slots []tableSlot // open-addressed, linear probing, power-of-two length
	keys  []string    // slot i's whole key, read by lookup only past 16 bytes
	// version is a monotone publication counter. It travels with the
	// snapshot so an extraction reads (membership, version) as one pair;
	// the extraction cache keys cached vectors by it so a vocabulary
	// change can never serve a stale text score.
	version uint64
}

// rebuildSnapshot republishes the fused view after a membership change.
func (b *AdaptiveBoW) rebuildSnapshot() {
	b.snapVersion++
	b.snap = buildFusedTable(b.words, b.snapVersion)
}

// SnapshotVersion returns the publication counter of the current
// membership snapshot (monotone; bumps when the vocabulary changes).
func (b *AdaptiveBoW) SnapshotVersion() uint64 {
	return b.snap.version
}

// lookupSnapshot returns the current membership view for fast-path
// scoring within the feature package.
func (b *AdaptiveBoW) lookupSnapshot() *bowSnapshot {
	return b.snap
}

// NewAdaptiveBoW creates the feature seeded with the swear-word lexicon.
func NewAdaptiveBoW(cfg BoWConfig) *AdaptiveBoW {
	b := &AdaptiveBoW{
		cfg:        cfg.withDefaults(),
		words:      make(map[string]bool),
		seed:       make(map[string]bool),
		aggressive: newWordTable(),
		normal:     newWordTable(),
	}
	for _, w := range lexicon.SwearWords() {
		w = strings.ToLower(w)
		b.words[w] = true
		b.seed[w] = true
	}
	b.rebuildSnapshot()
	return b
}

// Size returns the current number of words in the BoW (Fig. 10's y-axis).
func (b *AdaptiveBoW) Size() int { return len(b.words) }

// Additions returns how many words have been added over time.
func (b *AdaptiveBoW) Additions() int { return b.additions }

// Removals returns how many learned words have been evicted.
func (b *AdaptiveBoW) Removals() int { return b.removals }

// Words returns a snapshot of the current BoW contents, used to broadcast
// the vocabulary to remote tasks each micro-batch.
func (b *AdaptiveBoW) Words() []string {
	out := make([]string, 0, len(b.words))
	for w := range b.words {
		out = append(out, w)
	}
	return out
}

// SetWords replaces the BoW contents with a broadcast snapshot (remote
// executor side). Rolling statistics are untouched; remote BoWs never
// adapt locally — adaptation happens at the driver.
func (b *AdaptiveBoW) SetWords(words []string) {
	b.words = make(map[string]bool, len(words))
	for _, w := range words {
		b.words[w] = true
	}
	b.rebuildSnapshot()
}

// Contains reports membership of the lower-cased token.
func (b *AdaptiveBoW) Contains(token string) bool {
	return b.words[strings.ToLower(token)]
}

// learns reports whether learning adapts the vocabulary: false for the
// fixed-BoW baseline, which Learn then skips before scanning.
func (b *AdaptiveBoW) learns() bool { return !b.cfg.Frozen }

// learnScanned folds one labeled tweet's scanned words, their lowered forms
// being the BoW's lookup keys, into the rolling statistics and periodically
// runs the enhancement round; aggressive marks abusive-or-hateful labels.
func (b *AdaptiveBoW) learnScanned(ts *text.Scratch, aggressive bool) {
	if b.cfg.Frozen {
		return
	}
	t := b.side(aggressive)
	t.begin()
	for i, n := 0, ts.Words(); i < n; i++ {
		t.bump(ts.Lower(i))
	}
	b.learned()
}

func (b *AdaptiveBoW) side(aggressive bool) *wordTable {
	if aggressive {
		return b.aggressive
	}
	return b.normal
}

// learned closes one labeled tweet: every updateEvery of them run an
// enhancement round.
func (b *AdaptiveBoW) learned() {
	b.sinceUpdate++
	if b.sinceUpdate >= b.cfg.updateEvery {
		b.sinceUpdate = 0
		b.enhance()
	}
}

// enhance applies the add/remove rules.
func (b *AdaptiveBoW) enhance() {
	if b.aggressive.tweets < 50 || b.normal.tweets < 50 {
		return // not enough evidence yet
	}
	additions, removals := b.additions, b.removals
	for w := range b.aggressive.counts {
		if b.words[w] {
			continue
		}
		ra := b.aggressive.rate(w)
		rn := b.normal.rate(w)
		if ra >= bowMinAggressiveRate && ra >= bowMinRatio*maxf(rn, 1e-6) {
			b.words[w] = true
			b.additions++
		}
	}
	for w := range b.words {
		if b.seed[w] {
			continue
		}
		ra := b.aggressive.rate(w)
		rn := b.normal.rate(w)
		if rn > ra {
			delete(b.words, w)
			b.removals++
		}
	}
	b.aggressive.decay(b.cfg.decay)
	b.normal.decay(b.cfg.decay)
	b.aggressive.prune(bowMaxVocab)
	b.normal.prune(bowMaxVocab)
	// A round that moved no word keeps the published snapshot, and with it
	// every extraction-cache entry keyed by its version.
	if b.additions != additions || b.removals != removals {
		b.rebuildSnapshot()
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
