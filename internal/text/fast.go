// Package text is the tweet tokenization substrate of the detection
// pipeline: one single-pass, allocation-free scanner with a tokenization
// spec per setting of the paper's preprocessing toggle (p=ON/OFF, Fig. 6).
// The word lists live in the subpackages pos, sentiment and lexicon.
//
// A Scratch owns reusable byte arenas and a word table. Both specs walk the
// raw text once, split it into fields exactly like strings.Fields, and
// count '#' and '@' fields, URL fields and shouted words (at least two
// letters, all uppercase, neither an entity nor RT) the same way. They
// differ in what a word is:
//
//   - Scan, the paper's preprocessing (p=ON), drops URL, mention, hashtag
//     and abbreviation (RT, DM, ...) fields; a word is what is left of a
//     field's letters and apostrophes, apostrophes trimmed at both ends.
//     Sentences are the chunks of the entity-stripped text between '.',
//     '!' and '?' that hold a letter.
//   - ScanRaw (p=OFF) keeps every field as a word. Its token is the field
//     trimmed of runes that are neither letter nor digit, lowered rune by
//     rune as strings.ToLower lowers; its key, what the tagger and the
//     sentiment lexicon see, is the token trimmed to its letters ("2day"
//     keys as "day"). Sentences split the raw text at '.', '!', '?' and
//     newlines, so "a.b" is two tokens in two sentences.
//
// The feature package pins both specs to its multi-pass test reference
// (reference_test.go: FuzzTokenizeFast, FuzzTokenizeRaw) and to
// testdata/preprocess_off.golden.
package text

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// ScanStats are the whole-tweet counts gathered during one scan.
type ScanStats struct {
	Hashtags   int // '#'-prefixed fields (len > 1)
	Mentions   int // '@'-prefixed fields (len > 1)
	URLs       int // http://, https://, www., t.co/ fields
	UpperWords int // shouted words
	// Sentences counts the sentences of the spec: chunks that hold at
	// least one letter.
	Sentences int
	// SentenceWords is the numerator of the mean sentence length: every
	// word under Scan, the tokens inside counted sentences under ScanRaw.
	SentenceWords int
	// LetterSum is the total letter-rune count over the words (the
	// numerator of the mean word length).
	LetterSum int
	// Exclaims counts the text's '!' under ScanRaw (sentiment emphasis);
	// Scan leaves it 0, since cleaning removes every '!'.
	Exclaims int
}

// word is one word of a scan: spans into the Scratch arenas plus per-word
// statistics gathered during the scan.
type word struct {
	cleanOff, cleanEnd int32 // span in Scratch.clean (case preserved)
	lowerOff, lowerEnd int32 // span in Scratch.lower
	letters, uppers    int32 // letter runes / uppercase letter runes
	elongated          bool  // a rune repeated >= 3 times in a row
	apos               bool  // an apostrophe inside the key ("don't")
}

// span is a key's byte range in Scratch.lower.
type span struct{ off, end int32 }

// Scratch is the reusable state of the single-pass scanner. The zero value
// is ready to use; Scan and ScanRaw reset it. A Scratch must not be shared
// between goroutines — pool one per worker (the feature extractor keeps a
// sync.Pool of them).
type Scratch struct {
	Stats ScanStats

	clean []byte // arena of case-preserved word bytes
	lower []byte // arena of lowercased word bytes
	words []word
	keys  []span // ScanRaw only: each word's letters-trimmed key

	sentHasLetter bool
	sentWords     int // ScanRaw only: tokens of the open sentence
}

// maxRetainedArena and maxRetainedWords bound the buffer capacities a
// Scratch keeps between scans, so one pathological multi-kilobyte tweet
// does not pin its arenas or word table in the pool forever.
const (
	maxRetainedArena = 64 << 10
	maxRetainedWords = 4 << 10
)

// Reset clears the scratch for reuse, dropping oversized buffers.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) Reset() {
	s.Stats = ScanStats{}
	s.sentHasLetter, s.sentWords = false, 0
	if cap(s.clean) > maxRetainedArena {
		s.clean = nil
	}
	if cap(s.lower) > maxRetainedArena {
		s.lower = nil
	}
	if cap(s.words) > maxRetainedWords {
		s.words = nil
	}
	if cap(s.keys) > maxRetainedWords {
		s.keys = nil
	}
	s.clean = s.clean[:0]
	s.lower = s.lower[:0]
	s.words = s.words[:0]
	s.keys = s.keys[:0]
}

// Words returns the number of words produced by the last scan: cleaned
// words under Scan, fields under ScanRaw.
func (s *Scratch) Words() int { return len(s.words) }

// Clean returns word i's case-preserved bytes: the cleaned word under Scan,
// the whole field under ScanRaw. The slice aliases the scratch arena: it is
// valid until the next scan or Reset and must not be mutated.
func (s *Scratch) Clean(i int) []byte {
	w := &s.words[i]
	return s.clean[w.cleanOff:w.cleanEnd]
}

// Lower returns word i's lowercased word (Scan) or token (ScanRaw; empty
// when the field holds no letter or digit), with Clean's aliasing rules.
// It keys the bag-of-words and the swear list.
func (s *Scratch) Lower(i int) []byte {
	w := &s.words[i]
	return s.lower[w.lowerOff:w.lowerEnd]
}

// Key returns the form of word i the tagger and the sentiment lexicon key
// on: Lower(i) under Scan, the token trimmed to its letters under ScanRaw
// (empty when it holds no letter). Same aliasing rules as Clean.
func (s *Scratch) Key(i int) []byte {
	if i < len(s.keys) {
		k := s.keys[i]
		return s.lower[k.off:k.end]
	}
	return s.Lower(i)
}

// WordInfo returns word i's letter count, uppercase-letter count, whether
// it carries an elongation ("sooo"; under ScanRaw a run of any rune, so
// "bad..." too), and whether its key holds an apostrophe.
func (s *Scratch) WordInfo(i int) (letters, uppers int, elongated, apostrophe bool) {
	w := &s.words[i]
	return int(w.letters), int(w.uppers), w.elongated, w.apos
}

// Byte classes of the ASCII fast path. Scan and field look every byte
// below utf8.RuneSelf up in byteClass instead of decoding a rune and asking
// the unicode tables; bytes >= 0x80 have class 0 and take the rune path.
const (
	bSpace  = 1 << iota // unicode.IsSpace: \t \n \v \f \r and space
	bUpper              // A-Z
	bLower              // a-z
	bDigit              // 0-9
	bTerm               // sentence terminators . ! ?
	bApos               // '
	bLetter = bUpper | bLower
)

const (
	lsb = 0x0101010101010101 // the low bit of every byte of a word
	msb = 0x8080808080808080 // the high bit of every byte of a word
)

// load64 returns src[i:i+8] as one little-endian word. The shifts and ORs
// compile to a single load, as in the feature package's textHash.
//
//redvet:noalloc gate=FeaturePathScan
func load64(src string, i int) uint64 {
	s := src[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// letterRun returns how many bytes of w, from its lowest, are ASCII
// letters. |0x20 lowers a letter, and only a letter lowers into a-z; two
// additions then set a byte's high bit at >= 'a' and at > 'z'. A byte >=
// 0x80 stops the run on its own; its additions may carry into the bytes
// above it, never into those below, so the lowest stop is exact.
//
//redvet:noalloc gate=FeaturePathScan
func letterRun(w uint64) int {
	l := w | lsb*0x20
	letter := (l + lsb*(0x80-'a')) &^ (l + lsb*(0x80-'z'-1))
	return bits.TrailingZeros64((^letter|w)&msb) >> 3
}

// zeroBytes flags the zero bytes of x, exactly: the high bit of each.
//
//redvet:noalloc gate=FeaturePathScan
func zeroBytes(x uint64) uint64 {
	return ^((x&^msb + lsb*0x7f) | x) & msb
}

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = bSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-0x20] = bLower, bUpper
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = bDigit
	}
	t['.'], t['!'], t['?'], t['\''] = bTerm, bTerm, bTerm, bApos
	return t
}()

// spaceLen returns the byte length of the whitespace rune at src[i], or 0
// when the rune there is not whitespace.
//
//redvet:noalloc gate=FeaturePathScan
func spaceLen(src string, i int) int {
	if c := src[i]; c < utf8.RuneSelf {
		return int(byteClass[c] & bSpace) // bSpace is 1, an ASCII space's length
	}
	if r, sz := utf8.DecodeRuneInString(src[i:]); unicode.IsSpace(r) {
		return sz
	}
	return 0
}

// fieldEnd returns the offset of the first whitespace rune at or after i.
// It skips eight bytes per step up to the first byte <= ' ' or >= 0x80,
// which the rune loop then judges.
//
//redvet:noalloc gate=FeaturePathScan
func fieldEnd(src string, i int) int {
	for i < len(src) {
		if i+8 <= len(src) {
			w := load64(src, i)
			// A byte < 0x80 reaches the high bit when 0x5f is added iff it
			// is > ' '; a byte >= 0x80 stops on its own and carries only up.
			stop := (^(w + lsb*0x5f) | w) & msb
			if stop == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(stop) >> 3
		}
		if spaceLen(src, i) != 0 {
			break
		}
		_, sz := utf8.DecodeRuneInString(src[i:])
		i += sz
	}
	return i
}

// Scan processes one tweet text under the preprocessing spec (p=ON). Any
// previous scan state is discarded.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) Scan(src string) {
	s.Reset()
	for i := 0; i < len(src); {
		if sz := spaceLen(src, i); sz > 0 {
			i += sz
		} else {
			i = s.field(src, i)
		}
	}
	// Final sentence flush: the trailing chunk counts like any other.
	if s.sentHasLetter {
		s.Stats.Sentences++
		s.sentHasLetter = false
	}
	s.Stats.SentenceWords = len(s.words)
}

// field processes, under Scan, the whitespace-delimited field of the raw
// text that starts at src[start] and returns the offset just past it.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) field(src string, start int) int {
	// Entity fields: '@' or '#' and at least one more byte, or a URL
	// prefix; the three are mutually exclusive by first byte. The URL
	// prefixes hold no whitespace, so matching them on the rest of the text
	// is matching them on the field.
	switch c := src[start]; {
	case c == '@' || c == '#':
		end := fieldEnd(src, start+1)
		if end == start+1 {
			break // a lone '@' or '#' is punctuation
		}
		if c == '@' {
			s.Stats.Mentions++
		} else {
			s.Stats.Hashtags++
		}
		return end
	case isURLField(src[start:]):
		s.Stats.URLs++
		return fieldEnd(src, start)
	}

	// One pass over the field finds its end and gathers everything on the
	// way: letter-or-digit bounds, letter statistics, the cleaned + lowered bytes
	// (letters and apostrophes survive cleaning), the elongation run over
	// the cleaned runes, and the sentence events of the entity-stripped text
	// ('.', '!', '?' flush a sentence; letters mark the current one
	// non-empty). Arenas and sentence state live in locals and are committed
	// at the end, so an abbreviation token leaves no trace.
	//
	// A run of ASCII letters with eight bytes left in the text is taken a
	// word at a time: up to eight letters per step, appended as the word and
	// as the word |0x20, counted with OnesCount64 (an uppercase letter has
	// bit 5 clear). Its bytes equal to the byte before them carry the
	// elongation run across steps. The byte loop below takes every other
	// byte, and letters in the text's last seven.
	clean, lower := s.clean, s.lower
	cOff, lOff := len(clean), len(lower)
	sentences, sentHasLetter := s.Stats.Sentences, s.sentHasLetter
	var letters, uppers int32
	firstAl, lastAlEnd := len(src), -1 // outermost letter-or-digit byte offsets
	prev, run := rune(-1), 0           // current run of equal cleaned runes
	elongated, apos := false, false
	i := start
scan:
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf {
			switch k := byteClass[c]; {
			case k&bLetter != 0 && i+8 <= len(src):
				w := load64(src, i)
				n := letterRun(w) // >= 1: src[i] is a letter
				keep := uint64(1)<<(8*n) - 1
				nc, nl := len(clean), len(lower)
				clean = binary.LittleEndian.AppendUint64(clean, w)[:nc+n]
				lower = binary.LittleEndian.AppendUint64(lower, w|lsb*0x20)[:nl+n]
				letters += int32(n)
				uppers += int32(bits.OnesCount64(^w & keep & (lsb * 0x20)))
				firstAl, lastAlEnd = min(firstAl, i), i+n
				sentHasLetter = true
				var p uint64 // the cleaned rune before the run, if an ASCII letter
				if uint32(prev) < utf8.RuneSelf {
					p = uint64(prev)
				}
				eq := zeroBytes(w^(w<<8|p)) & keep // bytes equal to the one before
				if eq&(eq<<8) != 0 || eq&0x80 != 0 && run >= 2 {
					elongated = true // a third equal byte in a row
				}
				if fresh := ^eq & keep & msb; fresh == 0 {
					run += n
				} else {
					run = n + 1 - bits.Len64(fresh)>>3 // the last fresh byte starts the run
				}
				prev = rune(src[i+n-1])
				i += n
				continue
			case k&bLetter != 0:
				firstAl, lastAlEnd = min(firstAl, i), i+1
				clean = append(clean, c)
				lower = append(lower, c|0x20)
				letters++
				if k&bUpper != 0 {
					uppers++
				}
				sentHasLetter = true
				if rune(c) != prev {
					prev, run = rune(c), 1
				} else if run++; run >= 3 {
					elongated = true
				}
			case k&bSpace != 0:
				break scan
			case k&bDigit != 0:
				firstAl, lastAlEnd = min(firstAl, i), i+1
			case k&bTerm != 0:
				if sentHasLetter {
					sentences++
				}
				sentHasLetter = false
			case k&bApos != 0:
				apos = true
				clean = append(clean, '\'')
				lower = append(lower, '\'')
			}
			i++
			continue
		}
		r, sz := utf8.DecodeRuneInString(src[i:])
		if unicode.IsSpace(r) {
			break
		}
		isLetter := unicode.IsLetter(r)
		if isLetter || unicode.IsDigit(r) {
			firstAl, lastAlEnd = min(firstAl, i), i+sz
		}
		if isLetter {
			clean = append(clean, src[i:i+sz]...)
			lower = utf8.AppendRune(lower, unicode.ToLower(r))
			letters++
			if unicode.IsUpper(r) {
				uppers++
			}
			sentHasLetter = true
			if r != prev {
				prev, run = r, 1
			} else if run++; run >= 3 {
				elongated = true
			}
		}
		i += sz
	}

	// Finalize the word token: trim apostrophes at both ends, as cleaning
	// does. Apostrophes are single bytes in both arenas
	// and occupy the same rune positions, so the trim counts transfer. An
	// apostrophe breaks a letter run and three in a row are a run of their
	// own, but only inside the trimmed token — rare enough to rescan.
	la, ta := 0, 0 // leading / trailing apostrophe counts
	if apos {
		cb := clean[cOff:]
		for la < len(cb) && cb[la] == '\'' {
			la++
		}
		for ta < len(cb)-la && cb[len(cb)-1-ta] == '\'' {
			ta++
		}
		cb = cb[la : len(cb)-ta]
		elongated = hasElongationBytes(cb)
		apos = bytes.IndexByte(cb, '\'') >= 0
	}

	isWord := len(clean)-cOff > la+ta // else the field cleans away entirely
	if lastAlEnd >= 0 {
		trimmed := src[firstAl:lastAlEnd]
		// Shouted-word count: trimmed token present, not "RT", at least two
		// letters, every letter uppercase. All letters
		// are alphanumeric, so field-wide letter counts equal trimmed-range
		// counts.
		if letters >= 2 && uppers == letters && !isFoldRT(trimmed) {
			s.Stats.UpperWords++
		}
		// Abbreviation tokens (RT, DM, ...) are removed by both the word
		// cleaning and the sentence-boundary cleaning, so they contribute
		// neither a word nor sentence events.
		if isAbbrevField(trimmed) {
			sentences, sentHasLetter, isWord = s.Stats.Sentences, s.sentHasLetter, false
		}
	}
	s.Stats.Sentences, s.sentHasLetter = sentences, sentHasLetter
	if !isWord {
		s.clean, s.lower = clean[:cOff], lower[:lOff] // keep grown capacity
		return i
	}
	s.clean, s.lower = clean, lower
	// Filled in place: a literal would be assembled on the stack from narrow
	// stores and copied out with wide loads that cannot be forwarded.
	s.words = append(s.words, word{})
	w := &s.words[len(s.words)-1]
	w.cleanOff, w.cleanEnd = int32(cOff+la), int32(len(clean)-ta)
	w.lowerOff, w.lowerEnd = int32(lOff+la), int32(len(lower)-ta)
	w.letters, w.uppers = letters, uppers
	w.elongated, w.apos = elongated, apos
	s.Stats.LetterSum += int(letters)
	return i
}

// ScanRaw processes one tweet text under the raw spec (p=OFF): every field
// is a word. Any previous scan state is discarded.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) ScanRaw(src string) {
	s.Reset()
	for i := 0; i < len(src); {
		if sz := spaceLen(src, i); sz > 0 {
			if src[i] == '\n' {
				s.endSentence()
			}
			i += sz
		} else {
			i = s.fieldRaw(src, i)
		}
	}
	s.endSentence()
}

// endSentence closes the raw-spec sentence open at a terminator, a newline
// or the end of the text; it counts only when it holds a letter.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) endSentence() {
	if s.sentHasLetter {
		s.Stats.Sentences++
		s.Stats.SentenceWords += s.sentWords
	}
	s.sentHasLetter, s.sentWords = false, 0
}

// fieldRaw processes, under ScanRaw, the field that starts at src[start]
// and returns the offset just past it: the field goes whole to the clean
// arena, its token lowered to the lower arena with the key's span in it.
// A terminator inside the field ends both a sentence and a sub-token.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) fieldRaw(src string, start int) int {
	lower := s.lower
	tokOff, tokEnd := -1, -1 // token span in lower: letter-or-digit bounds
	keyOff, keyEnd := -1, -1 // key span in lower: letter bounds
	aposAt := -1             // first apostrophe after the key's first letter
	var letters, uppers int32
	prev, run := rune(-1), 0 // current run of equal runes
	elongated, subToken := false, false
	i := start
	for i < len(src) {
		r, sz, k := rune(src[i]), 1, byteClass[src[i]]
		if r >= utf8.RuneSelf {
			r, sz = utf8.DecodeRuneInString(src[i:])
			k = runeClass(r)
		}
		if k&bSpace != 0 {
			break
		}
		if k&(bLetter|bDigit) != 0 && tokOff < 0 {
			tokOff = len(lower)
		}
		if k&bLetter != 0 && keyOff < 0 {
			keyOff = len(lower)
		}
		if k&bApos != 0 && keyOff >= 0 && aposAt < 0 {
			aposAt = len(lower)
		}
		if tokOff >= 0 {
			lower = utf8.AppendRune(lower, unicode.ToLower(r))
		}
		switch {
		case k&bLetter != 0:
			tokEnd, keyEnd, subToken = len(lower), len(lower), true
			letters++
			if k&bUpper != 0 {
				uppers++
			}
			s.sentHasLetter = true
		case k&bDigit != 0:
			tokEnd, subToken = len(lower), true
		case k&bTerm != 0:
			if r == '!' {
				s.Stats.Exclaims++
			}
			if subToken {
				s.sentWords++
			}
			subToken = false
			s.endSentence()
		}
		if r != prev {
			prev, run = r, 1
		} else if run++; run >= 3 {
			elongated = true
		}
		i += sz
	}
	if subToken {
		s.sentWords++
	}

	f := src[start:i]
	isEntity := true
	switch {
	case len(f) > 1 && f[0] == '@':
		s.Stats.Mentions++
	case len(f) > 1 && f[0] == '#':
		s.Stats.Hashtags++
	case isURLField(f):
		s.Stats.URLs++
	default:
		isEntity = false
	}
	if tokOff < 0 { // no letter or digit: a word with an empty token
		tokOff, tokEnd = len(lower), len(lower)
	}
	if keyOff < 0 {
		keyOff, keyEnd = tokOff, tokOff
	}
	tok := lower[tokOff:tokEnd]
	if !isEntity && letters >= 2 && uppers == letters && string(tok) != "rt" {
		s.Stats.UpperWords++
	}

	cOff := len(s.clean)
	s.clean = append(s.clean, f...)
	s.lower = lower[:tokEnd] // drop what trails the token
	s.words = append(s.words, word{})
	w := &s.words[len(s.words)-1]
	w.cleanOff, w.cleanEnd = int32(cOff), int32(len(s.clean))
	w.lowerOff, w.lowerEnd = int32(tokOff), int32(tokEnd)
	w.letters, w.uppers = letters, uppers
	w.elongated, w.apos = elongated, aposAt >= 0 && aposAt < keyEnd
	s.keys = append(s.keys, span{int32(keyOff), int32(keyEnd)})
	s.Stats.LetterSum += int(letters)
	return i
}

// runeClass is byteClass for a rune at or above utf8.RuneSelf: space,
// uppercase or other letter, or digit per the unicode tables, else 0.
func runeClass(r rune) uint8 {
	switch {
	case unicode.IsSpace(r):
		return bSpace
	case unicode.IsLetter(r) && unicode.IsUpper(r):
		return bUpper
	case unicode.IsLetter(r):
		return bLower
	case unicode.IsDigit(r):
		return bDigit
	}
	return 0
}

// isURLField reports whether the non-empty field starts with a URL prefix
// in any case, without lowercasing the whole field: the prefixes are ASCII,
// and no non-ASCII rune lowercases into them.
func isURLField(f string) bool {
	switch f[0] | 0x20 {
	case 'h':
		return hasFoldPrefix(f, "http://") || hasFoldPrefix(f, "https://")
	case 'w':
		return hasFoldPrefix(f, "www.")
	case 't':
		return hasFoldPrefix(f, "t.co/")
	}
	return false
}

// hasFoldPrefix reports whether s starts with the lowercase-ASCII prefix p,
// ignoring ASCII case.
func hasFoldPrefix(s, p string) bool {
	if len(s) < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != p[i] {
			return false
		}
	}
	return true
}

// isFoldRT reports strings.EqualFold(t, "rt"). The fold orbits of 'r' and
// 't' contain only their ASCII case pair, so a byte compare is exact.
func isFoldRT(t string) bool {
	return len(t) == 2 && t[0]|0x20 == 'r' && t[1]|0x20 == 't'
}

// isAbbrevField reports whether the trimmed token lowercases into the
// tweet-abbreviation set. The set is pure lowercase ASCII and no non-ASCII
// rune lowercases onto its letters, so an ASCII fold compare is exact.
func isAbbrevField(t string) bool {
	switch len(t) {
	case 2:
		a, b := t[0]|0x20, t[1]|0x20
		switch {
		case a == 'r' && b == 't', // rt
			a == 'm' && b == 't', // mt
			a == 'h' && b == 't', // ht
			a == 'c' && b == 'c', // cc
			a == 'd' && b == 'm', // dm
			a == 'o' && b == 'h', // oh
			a == 'f' && b == 'b', // fb
			a == 'f' && b == 'f': // ff
			return true
		}
	case 3:
		a, b, c := t[0]|0x20, t[1]|0x20, t[2]|0x20
		if a == 'p' && b == 'r' && c == 't' { // prt
			return true
		}
		if a == 't' && b == 'm' && c == 'b' { // tmb
			return true
		}
	}
	return false
}

// hasElongationBytes reports whether b holds a rune repeated three or more
// times in a row ("sooo").
func hasElongationBytes(b []byte) bool {
	run, prev := 0, rune(-1)
	for i := 0; i < len(b); {
		r, sz := utf8.DecodeRune(b[i:])
		if r == prev {
			run++
			if run >= 3 {
				return true
			}
		} else {
			prev, run = r, 1
		}
		i += sz
	}
	return false
}
