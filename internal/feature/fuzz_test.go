package feature

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"redhanded/internal/text"
	"redhanded/internal/twitterdata"
)

// fuzzSeeds is the seed corpus of the equivalence fuzzers: the scanner's
// ASCII fast-path boundary, invalid UTF-8, case oddities and tweet-entity
// shapes around words the fused table knows, and the raw spec's traps.
var fuzzSeeds = append([]string{
	"",
	"RT @somebody: OMG this is SOOO bad, check http://t.co/abc123 the 2nd game!! #fail",
	"you are a fucking IDIOT and I hate you!!!",
	"what a wonderful lovely day :) xD",
	"not good. very bad! so haaappy?",
	"don't can't won't shan't 'tis",
	"😀 emoji 🎉 مرحبا שלום \xed\xa0\x80 \xff",
	"a" + strings.Repeat("o", 10000),
	"to run to the running THE RUNNING rt DM",
	"sh1t f#ck b!tch a$$ leetspeak",
	"I İstanbul K KELVIN ſtrange",
	"one. two! three? four\nfive",
	"very\vgood\fso\x1cbad\x1d not\x1egood\x1f damn\x7fit",
	"so\u0085good not\u00a0bad to\u00a0run the\u0085running",
	"hate\x80 \x80love \xffnot\xff good",
	"İdiot ſo Kill \u212aill \u212a\u212a\u212a",
	"xD XD xd x'D xDD don't donnn't sooo'o",
	"to " + strings.Repeat("fuckINg'", 9<<10),
	// The raw spec (p=OFF): entity fields are tokens, keys trim digits,
	// every emoticon counts, elongation and sentences run on raw fields.
	"@bob #Tag http://x.co/a.b RT rt: 2day 123 1-on-1 b@stard @ss <3 </3",
	":) :-( :'( ^_^ -_- T_T D: :P :p >:( :D :-D ;) =( not :) good to :) run",
	"bad... sooo!!! wow?! a.b 3.5 apples !!! ...",
	"it's 'quoted' don't' o'clock rock'n'roll ''' x'''' not'good",
	"line one\nline two\r\nthree. 4. 5!\n\n",
	"Ⅰ ⅱ Ⓐⓑ ǅungla İSTANBUL ÀÉ 2İ 9ſ",
	"DM rt RT Rt rT mt HT cc prt TMB oh.fb ff!",
	"#tag.with.dots @user.name www.a.b!c @ # @\x80 #\xff www. WWW.\x80 t.co/ T.CO/x hTTp://",
	"nel\u0085split nbsp\u00a0split @\u00a0x #\u0085y http://\u00a0z lone\x80cont \xff\xffinvalid\xc2",
	strings.Repeat("aB'9.", 14<<10),
}, wordStepSeeds()...)

// wordStepSeeds are the word-at-a-time scanner's boundaries: letter runs of
// 1-17 bytes at field offsets 0-15 in mixed case, elongations across an
// 8-byte boundary (carried over a digit, or not), each kind of byte right
// after a run, a non-ASCII letter right before one, fields ending 0-7 bytes before the text does, and long URL,
// mention and hashtag fields. It is a copy of the text package's.
func wordStepSeeds() []string {
	run := func(n, seed int) string { // n letters, every third one uppercase
		b := make([]byte, n)
		for j := range b {
			b[j] = 'a' + byte((7*j+seed)%26)
			if (j+seed)%3 == 0 {
				b[j] -= 'a' - 'A'
			}
		}
		return string(b)
	}
	var out, fields []string
	flush := func() {
		out, fields = append(out, strings.Join(fields, " ")), nil
	}
	for n := 1; n <= 17; n++ {
		for off := 0; off < 16; off++ {
			fields = append(fields, "0123456789'.!?-_"[:off]+run(n, off))
		}
		flush()
	}
	for p := 4; p <= 10; p++ {
		for r := 2; r <= 4; r++ {
			fields = append(fields, run(p, p)+strings.Repeat("o", r)+"k", run(p, r)+strings.Repeat("O", r)+"O1OO")
		}
	}
	flush()
	for _, c := range []string{"'", "7", ".", "!", "?", "\x7f", "\x80", "\xff", "é", "ſ", "\u212a"} {
		for n := 1; n <= 9; n++ {
			fields = append(fields, run(n, n)+c+run(3, n))
		}
		flush()
	}
	// A non-ASCII letter whose low seven bits spell the letters after it.
	out = append(out, "éii"+run(8, 0)+" ÁAA"+run(8, 3))
	for k := 0; k < 8; k++ {
		out = append(out, "Sooo LOUDLY shoutedd"+strings.Repeat(" ", k), "Sooo LOUDLY shoutedd"+strings.Repeat(".", k))
	}
	long := run(40, 1)
	return append(out, "https://t.co/"+long+" @"+long+" #"+long+" www."+long+"\u0085x @"+long[:20]+"\xffé"+long+" #"+long)
}

// fuzzTweet wraps text in a tweet with a fixed profile.
func fuzzTweet(s string) twitterdata.Tweet {
	return twitterdata.Tweet{
		IDStr: "t1",
		Text:  s,
		User: twitterdata.User{
			IDStr:          "u1",
			FollowersCount: 3,
			FriendsCount:   5,
			StatusesCount:  7,
			ListedCount:    1,
		},
	}
}

// FuzzExtractEquivalence drives the whole extractor — scanner, POS
// stepper, sentiment stepper, swear lookup, BoW snapshot — with arbitrary
// text under both specs and asserts it matches the multi-pass reference
// bit for bit.
func FuzzExtractEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	on := NewExtractor(DefaultConfig())
	off := NewExtractor(Config{Preprocess: false})
	f.Fuzz(func(t *testing.T, s string) {
		tw := fuzzTweet(s)
		for _, e := range []*Extractor{on, off} {
			slow := make([]float64, NumFeatures)
			e.extractLegacyInto(slow, &tw)
			fast := e.ExtractInto(make([]float64, NumFeatures), &tw)
			if diff := vectorDiff(slow, fast); diff != "" {
				t.Fatalf("p=%v, text %q: %s", e.cfg.Preprocess, s, diff)
			}
		}
	})
}

// FuzzTokenizeFast pins Scan (p=ON) to the reference on arbitrary input:
// the words of Clean+Tokenize, their lowered forms and statistics, the
// raw-text counts and the sentence count of the entity-stripped text.
func FuzzTokenizeFast(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var sc text.Scratch
		sc.Scan(s)

		want := tokenize(clean(s, cleanOpts))
		if got := sc.Words(); got != len(want) {
			t.Fatalf("Scan(%q): %d words, reference %d (%q)", s, got, len(want), want)
		}
		letterSum := 0
		for i, w := range want {
			if got := string(sc.Clean(i)); got != w {
				t.Fatalf("Scan(%q): word %d = %q, reference %q", s, i, got, w)
			}
			if got, want := string(sc.Lower(i)), strings.ToLower(w); got != want {
				t.Fatalf("Scan(%q): lower %d = %q, reference %q", s, i, got, want)
			}
			if got := string(sc.Key(i)); got != string(sc.Lower(i)) {
				t.Fatalf("Scan(%q): key %d = %q, want the lowered word", s, i, got)
			}
			letters, _, elongated, apostrophe := sc.WordInfo(i)
			if apostrophe != strings.Contains(w, "'") {
				t.Fatalf("Scan(%q): word %d apostrophe = %v, token %q", s, i, apostrophe, w)
			}
			if want := countLetters(w); letters != want {
				t.Fatalf("Scan(%q): word %d letters = %d, reference %d", s, i, letters, want)
			}
			if elongated != hasElongation(w) {
				t.Fatalf("Scan(%q): word %d elongated = %v, reference %v", s, i, elongated, hasElongation(w))
			}
			letterSum += letters
		}
		st := sc.Stats
		checkRawCounts(t, s, st)
		if st.LetterSum != letterSum {
			t.Fatalf("Scan(%q): letter sum %d, reference %d", s, st.LetterSum, letterSum)
		}
		if got, want := st.Sentences, len(splitSentences(clean(s, sentOpts))); got != want {
			t.Fatalf("Scan(%q): sentences %d, reference %d", s, got, want)
		}
		if st.SentenceWords != len(want) || st.Exclaims != 0 {
			t.Fatalf("Scan(%q): sentence words %d, exclaims %d; want %d, 0", s, st.SentenceWords, st.Exclaims, len(want))
		}
	})
}

// FuzzTokenizeRaw is FuzzTokenizeFast's twin for ScanRaw (p=OFF): one word
// per raw field, whose Lower is the lowered Tokenize token, whose Key is
// what the reference tagger and analyzer key on, and whose statistics are
// judged on the raw field; the sentence statistics are those of
// SplitSentences over the raw text.
func FuzzTokenizeRaw(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var sc text.Scratch
		sc.ScanRaw(s)

		fields := strings.Fields(s)
		if got := sc.Words(); got != len(fields) {
			t.Fatalf("ScanRaw(%q): %d words, %d fields", s, got, len(fields))
		}
		letterSum := 0
		for i, field := range fields {
			if got := string(sc.Clean(i)); got != field {
				t.Fatalf("ScanRaw(%q): word %d = %q, field %q", s, i, got, field)
			}
			if got, want := string(sc.Lower(i)), strings.ToLower(trimPunct(field)); got != want {
				t.Fatalf("ScanRaw(%q): lower %d = %q, reference %q", s, i, got, want)
			}
			key := string(sc.Key(i))
			if want := strings.ToLower(strip(trimPunct(field))); key != want {
				t.Fatalf("ScanRaw(%q): key %d = %q, tagger's %q", s, i, key, want)
			}
			if want := normalizeToken(field); strings.ReplaceAll(key, "'", "") != want {
				t.Fatalf("ScanRaw(%q): key %d = %q, analyzer's %q", s, i, key, want)
			}
			if !utf8.ValidString(key) || !utf8.Valid(sc.Lower(i)) {
				t.Fatalf("ScanRaw(%q): word %d: invalid UTF-8 key or token", s, i)
			}
			letters, uppers, elongated, apostrophe := sc.WordInfo(i)
			if apostrophe != strings.Contains(key, "'") {
				t.Fatalf("ScanRaw(%q): word %d apostrophe = %v, key %q", s, i, apostrophe, key)
			}
			if letters != countLetters(field) || (letters >= 2 && uppers == letters) != isShout(field) {
				t.Fatalf("ScanRaw(%q): word %d letters %d uppers %d, field %q", s, i, letters, uppers, field)
			}
			if elongated != hasElongation(field) {
				t.Fatalf("ScanRaw(%q): word %d elongated = %v, reference %v", s, i, elongated, hasElongation(field))
			}
			letterSum += letters
		}
		st := sc.Stats
		checkRawCounts(t, s, st)
		if st.LetterSum != letterSum {
			t.Fatalf("ScanRaw(%q): letter sum %d, reference %d", s, st.LetterSum, letterSum)
		}
		sentences := splitSentences(s)
		sentenceWords := 0
		for _, sent := range sentences {
			sentenceWords += len(tokenize(sent))
		}
		if st.Sentences != len(sentences) || st.SentenceWords != sentenceWords {
			t.Fatalf("ScanRaw(%q): %d sentences of %d words, reference %d of %d",
				s, st.Sentences, st.SentenceWords, len(sentences), sentenceWords)
		}
		if want := strings.Count(s, "!"); st.Exclaims != want {
			t.Fatalf("ScanRaw(%q): exclaims %d, reference %d", s, st.Exclaims, want)
		}
	})
}

// checkRawCounts compares the counts both specs take on the raw text.
func checkRawCounts(t *testing.T, s string, st text.ScanStats) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"hashtags", st.Hashtags, countTokenKind(s, isHashtagToken)},
		{"urls", st.URLs, countTokenKind(s, isURLToken)},
		{"mentions", st.Mentions, countTokenKind(s, isMentionToken)},
		{"upper words", st.UpperWords, countUpperWords(s)},
	} {
		if c.got != c.want {
			t.Fatalf("scan of %q: %s %d, reference %d", s, c.name, c.got, c.want)
		}
	}
}

func countLetters(s string) int {
	n := 0
	for _, r := range s {
		if unicode.IsLetter(r) {
			n++
		}
	}
	return n
}
