package text

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// nastyInputs is the shared seed corpus: emoji, RTL scripts, lone
// surrogates and other invalid UTF-8, huge elongations, case oddities the
// ASCII fast paths must not mishandle, and tweet-entity edge shapes.
func nastyInputs() []string {
	return []string{
		"",
		" ",
		"RT @user: OMG this is SOOO bad!! check http://t.co/x #fail",
		"plain words only",
		"😀😀😀 emoji 🎉 tweet 🔥🔥",
		"مرحبا بالعالم هذا نص عربي",
		"שלום עולם ‏RTL‏ mixed",
		"\xed\xa0\x80 lone surrogate \xed\xbf\xbf",
		"\xff\xfe invalid \x80\x81 bytes",
		"a" + strings.Repeat("o", 10000) + "!!!",
		strings.Repeat("so ", 5000),
		"I İstanbul KELVIN KK sign ſtrange ſ",
		"DM rt RT Rt rT mt HT cc prt TMB oh.fb ff!",
		"@ # @mention #hashtag @a #b",
		"www.example.com WWW.SHOUT.COM HtTpS://x.y t.co/abc",
		"don't can't 'quoted' ''double'' '''",
		"a.b.c. d! e? f\ng",
		"one. two. three. 4. 5!",
		"x nbsp ls ps separators",
		"ǅungla titlecase ǅ Ǆ ǆ",
		"ÀÉÎÕÜ áéíóú ÄÖÜ SS ß",
		"12345 !@#$% ^&*() _+-=",
		"mixed123text 1a2b3c a1'2b",
		"İ ı K Å ſ",
		"ends.with.abbrev rt. DM! cc?",
		"#tag.with.dots @user.name www.a.b!c",
		// The ASCII fast path's boundary: every ASCII byte unicode.IsSpace
		// accepts and the control bytes next to them that it does not, the
		// two-byte Latin-1 spaces, lone continuation and invalid bytes, runes
		// that lowercase into ASCII, and a single field longer than the
		// arenas a scratch retains.
		"a\vb\fc\rd\te\x1cf\x1dg\x1eh\x1fi\x7fj\x00k",
		"nel\u0085split nbsp\u00a0split @\u00a0x #\u0085y http://\u00a0z",
		"lone\x80cont \x80 \xff\xffinvalid\xc2 trunc\xc2",
		"İİİ ſſſ KKK İstanbul ſo Kelvin \u212a\u212a\u212a",
		"@ # @\x80 #\xff www. WWW.\x80 t.co/ T.CO/x hTTp://",
		"it's ''' 'a' a''' '''a a'''b x'''' ''''x",
		strings.Repeat("aB'9.", 14<<10),
	}
}

// FuzzClean asserts the scanner never panics and emits well-formed words
// under both specs: Scan's are non-empty, valid UTF-8, letters and inner
// apostrophes only, and lower rune by rune into Lower; ScanRaw's tokens
// and keys are valid UTF-8, the token bounded by letters or digits and the
// key, a part of it, by letters.
func FuzzClean(f *testing.F) {
	for _, s := range nastyInputs() {
		f.Add(s)
	}
	isLetter := func(r rune) bool { return unicode.IsLetter(r) }
	f.Fuzz(func(t *testing.T, s string) {
		var sc Scratch
		sc.Scan(s)
		for i := 0; i < sc.Words(); i++ {
			w := string(sc.Clean(i))
			inner := strings.Trim(w, "'")
			if w == "" || inner != w || !utf8.ValidString(w) ||
				strings.IndexFunc(w, func(r rune) bool { return r != '\'' && !isLetter(r) }) >= 0 {
				t.Fatalf("Scan(%q): word %d = %q", s, i, w)
			}
			if lower := string(sc.Lower(i)); lower != strings.ToLower(w) || string(sc.Key(i)) != lower {
				t.Fatalf("Scan(%q): word %d = %q lowers to %q, keys as %q", s, i, w, lower, sc.Key(i))
			}
		}
		sc.ScanRaw(s)
		for i := 0; i < sc.Words(); i++ {
			tok, key := string(sc.Lower(i)), string(sc.Key(i))
			if !utf8.ValidString(tok) || !strings.Contains(tok, key) ||
				strings.TrimFunc(tok, func(r rune) bool { return !isLetter(r) && !unicode.IsDigit(r) }) != tok ||
				strings.TrimFunc(key, func(r rune) bool { return !isLetter(r) }) != key {
				t.Fatalf("ScanRaw(%q): word %d token %q, key %q", s, i, tok, key)
			}
		}
	})
}

// FuzzTokenizeFast asserts the two specs agree on what both take from the
// raw text — entity, URL and shouted-word counts — and that each scan's
// statistics add up: one raw word per field, the letter sum over the words,
// Scan's sentence length over all its words and its exclamation count 0, a
// reused scratch no different from a fresh one. Equivalence with the
// multi-pass pipeline is the feature package's FuzzTokenizeFast and
// FuzzTokenizeRaw, against its reference copy.
func FuzzTokenizeFast(f *testing.F) {
	for _, s := range nastyInputs() {
		f.Add(s)
	}
	letterSum := func(sc *Scratch) int {
		n := 0
		for i := 0; i < sc.Words(); i++ {
			letters, _, _, _ := sc.WordInfo(i)
			n += letters
		}
		return n
	}
	f.Fuzz(func(t *testing.T, s string) {
		var on, off Scratch
		on.Scan(s)
		off.ScanRaw(s)
		a, b := on.Stats, off.Stats
		if a.Hashtags != b.Hashtags || a.Mentions != b.Mentions || a.URLs != b.URLs || a.UpperWords != b.UpperWords {
			t.Fatalf("%q: raw-text counts differ between specs: %+v vs %+v", s, a, b)
		}
		if off.Words() != len(strings.Fields(s)) || on.Words() > off.Words() {
			t.Fatalf("%q: %d words, %d raw words, %d fields", s, on.Words(), off.Words(), len(strings.Fields(s)))
		}
		if a.LetterSum != letterSum(&on) || b.LetterSum != letterSum(&off) || a.LetterSum > b.LetterSum {
			t.Fatalf("%q: letter sums %d and %d do not add up", s, a.LetterSum, b.LetterSum)
		}
		if a.SentenceWords != on.Words() || a.Exclaims != 0 || b.Exclaims != strings.Count(s, "!") {
			t.Fatalf("%q: Scan %+v, ScanRaw %+v", s, a, b)
		}
		off.Scan(s) // reuse the raw scan's buffers
		if off.Stats != a || off.Words() != on.Words() {
			t.Fatalf("%q: Scan after ScanRaw %+v, fresh %+v", s, off.Stats, a)
		}
		for i := 0; i < on.Words(); i++ {
			if string(off.Key(i)) != string(on.Lower(i)) {
				t.Fatalf("%q: key %d after ScanRaw = %q, want %q", s, i, off.Key(i), on.Lower(i))
			}
		}
	})
}
