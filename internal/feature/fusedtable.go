package feature

import (
	"strings"
	"unicode"

	"redhanded/internal/text/lexicon"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
)

// The fused per-token lookup table. Everything the extraction loop asks
// about a word — closed-class POS tag, sentiment role and strength, seed
// swear word, adaptive-BoW member — is answered by one hash and one probe of
// an immutable open-addressed table keyed on the lowered token bytes. The
// static part is derived once from the word lists in text/pos,
// text/sentiment and text/lexicon (they stay the single source of truth);
// every BoW republication overlays the current membership on a fresh copy
// and publishes it through the AdaptiveBoW's atomic snapshot pointer.

// wordInfo is the packed value of one table entry:
//
//	bits 0-3   closed-class POS tag + 1      (0: open class, use the suffix rules)
//	bit  4     sentiment negator
//	bits 5-7   sentiment booster value + 2   (0: not a booster)
//	bits 8-11  sentiment term strength + 6   (0: not a term)
//	bit  12    seed swear word
//	bit  13    adaptive-BoW member
//	bit  14    an emoticon's key, lowered and letters-trimmed (confirm on the cased word)
//
// The zero value is a table miss: an open-class word no list knows.
type wordInfo uint32

const (
	infoTagMask    wordInfo = 0xf
	infoNegator    wordInfo = 1 << 4
	infoBoostShift          = 5
	infoBoostMask  wordInfo = 0x7
	infoBoostBias           = 2
	infoTermShift           = 8
	infoTermMask   wordInfo = 0xf
	infoTermBias            = 6
	infoSwear      wordInfo = 1 << 12
	infoBoW        wordInfo = 1 << 13
	infoEmoticon   wordInfo = 1 << 14
)

// tag returns the closed-class tag, or false for an open-class word.
//
//redvet:noalloc gate=FeaturePathFast
func (v wordInfo) tag() (pos.Tag, bool) { return pos.Tag(v&infoTagMask) - 1, v&infoTagMask != 0 }

// sentiment unpacks the word's sentiment.Word.
//
//redvet:noalloc gate=FeaturePathFast
func (v wordInfo) sentiment() sentiment.Word {
	w := sentiment.Word{Negator: v&infoNegator != 0}
	if b := v >> infoBoostShift & infoBoostMask; b != 0 {
		w.Boost = int(b) - infoBoostBias
	}
	if s := v >> infoTermShift & infoTermMask; s != 0 {
		w.Strength = int(s) - infoTermBias
	}
	return w
}

// tableSlot is one open-addressed slot; an empty key marks a free slot.
type tableSlot struct {
	key  string
	hash uint32
	info wordInfo
}

// emoticons are the cased spellings an infoEmoticon bit stands for, and
// staticSlots the pre-hashed entries every table starts from.
var (
	emoticons   = sentiment.Emoticons()
	staticSlots = buildStaticSlots()
)

func buildStaticSlots() []tableSlot {
	infos := make(map[string]wordInfo)
	for w, t := range pos.ClosedClass() {
		infos[w] |= wordInfo(t) + 1
	}
	for w, s := range sentiment.Words() {
		if s.Negator {
			infos[w] |= infoNegator
		}
		if s.Boost != 0 {
			infos[w] |= wordInfo(s.Boost+infoBoostBias) << infoBoostShift
		}
		if s.Strength != 0 {
			infos[w] |= wordInfo(s.Strength+infoTermBias) << infoTermShift
		}
	}
	for _, w := range lexicon.SwearWords() {
		infos[w] |= infoSwear
	}
	for e := range emoticons {
		// A key without letters (":)") is empty, and the extractor tries
		// every such word as an emoticon anyway.
		if key := strings.ToLower(strings.TrimFunc(e, isNotLetter)); key != "" {
			infos[key] |= infoEmoticon
		}
	}
	slots := make([]tableSlot, 0, len(infos))
	for w, info := range infos {
		slots = append(slots, tableSlot{key: w, hash: hashWord([]byte(w)), info: info})
	}
	return slots
}

func isNotLetter(r rune) bool { return !unicode.IsLetter(r) }

// hashWord is FNV-1a 32-bit over the token bytes.
//
//redvet:noalloc gate=FeaturePathFast
func hashWord(w []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range w {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// buildFusedTable builds the table for one BoW membership: the static
// entries with infoBoW overlaid on (or a bare infoBoW entry added for) every
// vocabulary word, at a load of at most one half.
func buildFusedTable(bow map[string]bool) []tableSlot {
	size := 1
	for size < 2*(len(staticSlots)+len(bow)) {
		size <<= 1
	}
	slots := make([]tableSlot, size)
	insert := func(e tableSlot) {
		i := int(e.hash) & (size - 1)
		for slots[i].key != "" && slots[i].key != e.key {
			i = (i + 1) & (size - 1)
		}
		slots[i] = tableSlot{key: e.key, hash: e.hash, info: slots[i].info | e.info}
	}
	for _, e := range staticSlots {
		insert(e)
	}
	for w := range bow {
		if w != "" {
			insert(tableSlot{key: w, hash: hashWord([]byte(w)), info: infoBoW})
		}
	}
	return slots
}

// lookup returns what the table knows about the lowered token w (the zero
// wordInfo on a miss). The probe compares the stored hash before the key
// bytes, so a miss normally touches one slot and no key.
//
//redvet:noalloc gate=FeaturePathFast
func (s *bowSnapshot) lookup(w []byte) wordInfo {
	h := hashWord(w)
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.key == "" {
			return 0
		}
		if e.hash == h && e.key == string(w) {
			return e.info
		}
	}
}
