package feature

import (
	"encoding/binary"
	"math/bits"
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

// tableSlot is one open-addressed slot, 32 bytes, so two share a cache
// line: the key's length and first 16 bytes (as keyWords loads them) sit
// next to its hash, and a probe compares them there. Only a key longer than
// 16 bytes is compared in full, against bowSnapshot.keys. Length 0 marks a
// free slot.
type tableSlot struct {
	lo, hi uint64
	hash   uint32
	n      uint32
	info   wordInfo
}

// staticEntry is one key of the word lists with its packed value.
type staticEntry struct {
	key  string
	info wordInfo
}

// emoticons are the cased spellings an infoEmoticon bit stands for, and
// staticEntries the entries every table starts from.
var (
	emoticons     = sentiment.Emoticons()
	staticEntries = buildStaticEntries()
)

func buildStaticEntries() []staticEntry {
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
	entries := make([]staticEntry, 0, len(infos))
	for w, info := range infos {
		entries = append(entries, staticEntry{w, info})
	}
	return entries
}

func isNotLetter(r rune) bool { return !unicode.IsLetter(r) }

// keyWords returns w's first 16 bytes as two little-endian words, zero past
// len(w).
//
//redvet:noalloc gate=FeaturePathFast
func keyWords(w []byte) (lo, hi uint64) {
	switch {
	case len(w) >= 16:
		return binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:])
	case len(w) >= 8:
		return binary.LittleEndian.Uint64(w), shortWord(w[8:])
	}
	return shortWord(w), 0
}

// shortWord loads b, at most seven bytes, into one little-endian word with
// two overlapping loads: bytes both loads cover land on the same bits.
//
//redvet:noalloc gate=FeaturePathFast
func shortWord(b []byte) uint64 {
	switch n := len(b); {
	case n >= 4:
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<(8*(n-4))
	case n >= 2:
		return uint64(binary.LittleEndian.Uint16(b)) | uint64(binary.LittleEndian.Uint16(b[n-2:]))<<(8*(n-2))
	case n == 1:
		return uint64(b[0])
	}
	return 0
}

// hashWord mixes a key's first 16 bytes, as keyWords loads them, and its
// length: one multiply per word, a rotate to bring lo's high bytes down,
// and a final multiply folded to 32 bits.
//
//redvet:noalloc gate=FeaturePathFast
func hashWord(lo, hi uint64, n int) uint32 {
	const (
		k1 = 0x9e3779b97f4a7c15
		k2 = 0xc2b2ae3d27d4eb4f
	)
	h := (bits.RotateLeft64(lo*k1, 31) ^ hi*k2 ^ uint64(n)) * k1
	return uint32(h ^ h>>32)
}

// buildFusedTable builds the table for one BoW membership: the static
// entries with infoBoW overlaid on (or a bare infoBoW entry added for) every
// vocabulary word, at a load of at most one half.
func buildFusedTable(bow map[string]bool, version uint64) *bowSnapshot {
	size := 1
	for size < 2*(len(staticEntries)+len(bow)) {
		size <<= 1
	}
	s := &bowSnapshot{slots: make([]tableSlot, size), keys: make([]string, size), version: version}
	insert := func(key string, info wordInfo) {
		if key == "" {
			return // length 0 marks a free slot: the empty key always misses
		}
		lo, hi := keyWords([]byte(key))
		h := hashWord(lo, hi, len(key))
		i := int(h) & (size - 1)
		for s.keys[i] != "" && s.keys[i] != key {
			i = (i + 1) & (size - 1)
		}
		s.keys[i] = key
		s.slots[i] = tableSlot{lo: lo, hi: hi, hash: h, n: uint32(len(key)), info: s.slots[i].info | info}
	}
	for _, e := range staticEntries {
		insert(e.key, e.info)
	}
	for w := range bow {
		insert(w, infoBoW)
	}
	return s
}

// lookup returns what the table knows about the lowered token w (the zero
// wordInfo on a miss). A probe reads the slot alone: hash, length and first
// 16 bytes; only a key longer than that is compared in full.
//
//redvet:noalloc gate=FeaturePathFast
func (s *bowSnapshot) lookup(w []byte) wordInfo {
	lo, hi := keyWords(w)
	h := hashWord(lo, hi, len(w))
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &s.slots[i]
		if e.n == 0 {
			return 0
		}
		if e.hash == h && e.lo == lo && e.hi == hi && e.n == uint32(len(w)) &&
			(len(w) <= 16 || s.keys[i] == string(w)) {
			return e.info
		}
	}
}
