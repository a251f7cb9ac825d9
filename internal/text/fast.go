package text

import (
	"bytes"
	"unicode"
	"unicode/utf8"
)

// This file is the single-pass, (near-)zero-allocation fast path over the
// preprocessing substrate. A Scratch owns reusable byte arenas and a token
// table; Scan walks the raw tweet text once, splitting fields exactly like
// strings.Fields, classifying each field (URL / mention / hashtag /
// abbreviation / word), writing the cleaned and lowercased forms of every
// surviving word into the arenas, and accumulating the whole-tweet counts
// the feature extractor needs (hashtags, URLs, shouted words, sentence
// boundaries of the entity-stripped text, letter totals).
//
// The semantics are pinned to the legacy pipeline with DefaultCleanOptions:
//
//	words   == Tokenize(Clean(s, DefaultCleanOptions()))
//	Lower(i) == strings.ToLower(words[i])
//	Hashtags == CountTokenKind(s, IsHashtagToken)
//	URLs     == CountTokenKind(s, IsURLToken)
//	UpperWords == CountUpperWords(s)
//	Sentences  == len(SplitSentences(Clean(s, sentence options)))
//
// where "sentence options" strips entities but keeps punctuation (the
// extractor's sentOpts). FuzzTokenizeFast and the feature-package golden
// test enforce these equalities against the legacy implementations.

// ScanStats are the whole-tweet counts gathered during one Scan pass.
type ScanStats struct {
	Hashtags   int // '#'-prefixed tokens (len > 1)
	Mentions   int // '@'-prefixed tokens (len > 1)
	URLs       int // http://, https://, www., t.co/ tokens
	UpperWords int // shouted words per CountUpperWords semantics
	// Sentences counts sentences of the entity-stripped text: chunks
	// between '.', '!', '?' that contain at least one letter.
	Sentences int
	// LetterSum is the total letter-rune count over the word tokens
	// (the numerator of MeanWordLength).
	LetterSum int
}

// word is one cleaned token: spans into the Scratch arenas plus per-token
// statistics gathered during the scan.
type word struct {
	cleanOff, cleanEnd int32 // span in Scratch.clean (case preserved)
	lowerOff, lowerEnd int32 // span in Scratch.lower
	letters, uppers    int32 // letter runes / uppercase letter runes
	elongated          bool  // a rune repeated >= 3 times in a row
	apos               bool  // an apostrophe inside the token ("don't")
}

// Scratch is the reusable state of the single-pass scanner. The zero value
// is ready to use; Scan resets it. A Scratch must not be shared between
// goroutines — pool one per worker (the feature extractor keeps a
// sync.Pool of them).
type Scratch struct {
	Stats ScanStats

	clean []byte // arena of cleaned, case-preserved token bytes
	lower []byte // arena of cleaned, lowercased token bytes
	words []word

	sentHasLetter bool
}

// maxRetainedArena and maxRetainedWords bound the buffer capacities a
// Scratch keeps between scans, so one pathological multi-kilobyte tweet
// does not pin its arenas or token table in the pool forever.
const (
	maxRetainedArena = 64 << 10
	maxRetainedWords = 4 << 10
)

// Reset clears the scratch for reuse, dropping oversized buffers.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) Reset() {
	s.Stats = ScanStats{}
	s.sentHasLetter = false
	if cap(s.clean) > maxRetainedArena {
		s.clean = nil
	}
	if cap(s.lower) > maxRetainedArena {
		s.lower = nil
	}
	if cap(s.words) > maxRetainedWords {
		s.words = nil
	}
	s.clean = s.clean[:0]
	s.lower = s.lower[:0]
	s.words = s.words[:0]
}

// Words returns the number of word tokens produced by the last Scan.
func (s *Scratch) Words() int { return len(s.words) }

// Clean returns word i's cleaned, case-preserved bytes. The slice aliases
// the scratch arena: it is valid until the next Scan or Reset and must not
// be mutated.
func (s *Scratch) Clean(i int) []byte {
	w := &s.words[i]
	return s.clean[w.cleanOff:w.cleanEnd]
}

// Lower returns word i's cleaned, lowercased bytes (same aliasing rules as
// Clean).
func (s *Scratch) Lower(i int) []byte {
	w := &s.words[i]
	return s.lower[w.lowerOff:w.lowerEnd]
}

// WordInfo returns word i's letter count, uppercase-letter count, whether
// it carries an elongation ("sooo"), and whether it holds an apostrophe.
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
//
//redvet:noalloc gate=FeaturePathScan
func fieldEnd(src string, i int) int {
	for i < len(src) && spaceLen(src, i) == 0 {
		_, sz := utf8.DecodeRuneInString(src[i:])
		i += sz
	}
	return i
}

// Scan processes one tweet text. Any previous scan state is discarded.
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
	// Final sentence flush (SplitSentences flushes the trailing chunk).
	if s.sentHasLetter {
		s.Stats.Sentences++
		s.sentHasLetter = false
	}
}

// field processes the whitespace-delimited token of the raw text that
// starts at src[start] and returns the offset just past it.
//
//redvet:noalloc gate=FeaturePathScan
func (s *Scratch) field(src string, start int) int {
	// Entity classification mirrors IsMentionToken / IsHashtagToken /
	// IsURLToken; the three are mutually exclusive by first byte. The URL
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
	// way: trimPunct bounds, letter statistics, the cleaned + lowered bytes
	// (letters and apostrophes survive cleaning), the elongation run over
	// the cleaned runes, and the sentence events of the entity-stripped text
	// ('.', '!', '?' flush a sentence; letters mark the current one
	// non-empty). Arenas and sentence state live in locals and are committed
	// at the end, so an abbreviation token leaves no trace.
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

	// Finalize the word token: trim apostrophes at both ends (cleanToken's
	// strings.Trim(.., "'")). Apostrophes are single bytes in both arenas
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
		// Shouted-word count (CountUpperWords): trimmed token present, not
		// "RT", at least two letters, every letter uppercase. All letters
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

// isURLField mirrors IsURLToken on a non-empty field without lowercasing
// the whole token: the prefixes are ASCII, and no non-ASCII rune lowercases
// into them.
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

// hasElongationBytes is HasElongation over a byte slice.
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
