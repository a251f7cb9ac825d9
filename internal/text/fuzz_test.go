package text

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// sentenceOpts mirrors the extractor's sentence-boundary cleaning: strip
// tweet entities, keep punctuation so sentence terminators survive.
func sentenceOpts() CleanOptions {
	return CleanOptions{
		RemoveURLs:          true,
		RemoveMentions:      true,
		RemoveHashtags:      true,
		RemoveAbbreviations: true,
		CondenseWhitespace:  true,
	}
}

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

// FuzzClean asserts the legacy cleaner never panics and always returns
// valid UTF-8, under every option profile the pipeline uses.
func FuzzClean(f *testing.F) {
	for _, s := range nastyInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, opts := range []CleanOptions{
			DefaultCleanOptions(),
			sentenceOpts(),
			{},
			{RemoveNumbers: true, RemovePunctuation: true},
		} {
			out := Clean(s, opts)
			if !utf8.ValidString(out) {
				t.Fatalf("Clean(%q, %+v) produced invalid UTF-8: %q", s, opts, out)
			}
		}
		for _, sent := range SplitSentences(s) {
			if !utf8.ValidString(sent) {
				t.Fatalf("SplitSentences(%q) produced invalid UTF-8", s)
			}
		}
	})
}

// FuzzTokenizeFast is the scanner's equivalence oracle: on arbitrary input
// the single-pass Scan must reproduce the legacy Clean+Tokenize token
// stream, the legacy raw-text counts, and the legacy sentence count — and
// never panic or emit invalid UTF-8.
func FuzzTokenizeFast(f *testing.F) {
	for _, s := range nastyInputs() {
		f.Add(s)
	}
	var cleanOpts = DefaultCleanOptions()
	f.Fuzz(func(t *testing.T, s string) {
		var sc Scratch
		sc.Scan(s)

		want := Tokenize(Clean(s, cleanOpts))
		if got := sc.Words(); got != len(want) {
			t.Fatalf("Scan(%q): %d words, legacy %d (%q)", s, got, len(want), want)
		}
		letterSum := 0
		for i, w := range want {
			gotClean := string(sc.Clean(i))
			if gotClean != w {
				t.Fatalf("Scan(%q): word %d = %q, legacy %q", s, i, gotClean, w)
			}
			if !utf8.ValidString(gotClean) {
				t.Fatalf("Scan(%q): word %d invalid UTF-8", s, i)
			}
			gotLower := string(sc.Lower(i))
			if wantLower := strings.ToLower(w); gotLower != wantLower {
				t.Fatalf("Scan(%q): lower %d = %q, legacy %q", s, i, gotLower, wantLower)
			}
			letters, _, elongated, apostrophe := sc.WordInfo(i)
			if apostrophe != strings.Contains(w, "'") {
				t.Fatalf("Scan(%q): word %d apostrophe = %v, token %q", s, i, apostrophe, w)
			}
			wantLetters := 0
			for _, r := range w {
				if unicode.IsLetter(r) {
					wantLetters++
				}
			}
			if letters != wantLetters {
				t.Fatalf("Scan(%q): word %d letters = %d, legacy %d", s, i, letters, wantLetters)
			}
			if elongated != HasElongation(w) {
				t.Fatalf("Scan(%q): word %d elongated = %v, legacy %v", s, i, elongated, HasElongation(w))
			}
			letterSum += wantLetters
		}
		if sc.Stats.LetterSum != letterSum {
			t.Fatalf("Scan(%q): letter sum %d, legacy %d", s, sc.Stats.LetterSum, letterSum)
		}
		if got, want := sc.Stats.Hashtags, CountTokenKind(s, IsHashtagToken); got != want {
			t.Fatalf("Scan(%q): hashtags %d, legacy %d", s, got, want)
		}
		if got, want := sc.Stats.URLs, CountTokenKind(s, IsURLToken); got != want {
			t.Fatalf("Scan(%q): urls %d, legacy %d", s, got, want)
		}
		if got, want := sc.Stats.Mentions, CountTokenKind(s, IsMentionToken); got != want {
			t.Fatalf("Scan(%q): mentions %d, legacy %d", s, got, want)
		}
		if got, want := sc.Stats.UpperWords, CountUpperWords(s); got != want {
			t.Fatalf("Scan(%q): upper words %d, legacy %d", s, got, want)
		}
		if got, want := sc.Stats.Sentences, len(SplitSentences(Clean(s, sentenceOpts()))); got != want {
			t.Fatalf("Scan(%q): sentences %d, legacy %d", s, got, want)
		}
	})
}
