package text

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

func TestScanBasics(t *testing.T) {
	var sc Scratch
	sc.Scan("RT @user: STOP THAT now!! see http://t.co/x #fail. It's sooo bad.")
	if got, want := sc.Stats.Hashtags, 1; got != want {
		t.Errorf("hashtags = %d, want %d", got, want)
	}
	if got, want := sc.Stats.URLs, 1; got != want {
		t.Errorf("urls = %d, want %d", got, want)
	}
	if got, want := sc.Stats.Mentions, 1; got != want {
		t.Errorf("mentions = %d, want %d", got, want)
	}
	if got, want := sc.Stats.UpperWords, 2; got != want {
		t.Errorf("upper words = %d, want %d (STOP THAT)", got, want)
	}
	words := make([]string, sc.Words())
	for i := range words {
		words[i] = string(sc.Clean(i))
	}
	want := []string{"STOP", "THAT", "now", "see", "It's", "sooo", "bad"}
	if strings.Join(words, " ") != strings.Join(want, " ") {
		t.Errorf("words = %q, want %q", words, want)
	}
	if _, _, elongated, _ := sc.WordInfo(5); !elongated {
		t.Errorf("expected %q to be elongated", words[5])
	}
}

// TestScanRawBasics walks the raw spec over the same tweet: every field is
// a word, entities included; tokens trim punctuation and keys trim digits;
// sentences split the raw text, URL dots included.
func TestScanRawBasics(t *testing.T) {
	var sc Scratch
	sc.ScanRaw("RT @user: STOP 2day!! see http://t.co/x #fail. It's sooo bad :)")
	if st := sc.Stats; st.Hashtags != 1 || st.URLs != 1 || st.Mentions != 1 || st.UpperWords != 1 || st.Exclaims != 2 {
		t.Errorf("stats = %+v, want 1 hashtag, URL, mention and shouted word, 2 exclaims", st)
	}
	tokens := "rt user stop 2day see http://t.co/x fail it's sooo bad "
	keys := "rt user stop day see http://t.co/x fail it's sooo bad "
	if got := strings.Join(collect(sc.Words(), sc.Lower), " "); got != tokens {
		t.Errorf("tokens = %q, want %q", got, tokens)
	}
	if got := strings.Join(collect(sc.Words(), sc.Key), " "); got != keys {
		t.Errorf("keys = %q, want %q", got, keys)
	}
	if got := string(sc.Clean(10)); got != ":)" {
		t.Errorf("last field = %q, want the emoticon", got)
	}
	// "RT user STOP 2day", " see http://t", "co/x #fail", " It's sooo bad :)"
	if st := sc.Stats; st.Sentences != 4 || st.SentenceWords != 11 {
		t.Errorf("%d sentences of %d tokens, want 4 of 11", st.Sentences, st.SentenceWords)
	}
}

func TestScanSentencesSkipEntityDots(t *testing.T) {
	var sc Scratch
	// URL dots must not fabricate sentence boundaries; abbreviation and
	// entity tokens are stripped before sentence splitting.
	sc.Scan("first part http://a.b.c/d.e second part. and a third!")
	if got, want := sc.Stats.Sentences, 2; got != want {
		t.Errorf("sentences = %d, want %d", got, want)
	}
}

func TestScanReuseIsClean(t *testing.T) {
	var sc Scratch
	sc.Scan("aaa bbb ccc. ddd!")
	sc.Scan("x")
	if sc.Words() != 1 || string(sc.Clean(0)) != "x" || sc.Stats.Sentences != 1 {
		t.Errorf("reused scratch leaked state: words=%d stats=%+v", sc.Words(), sc.Stats)
	}
	sc.ScanRaw("a1 b2! c3")
	sc.Scan("x")
	if sc.Words() != 1 || string(sc.Key(0)) != "x" || sc.Stats.Exclaims != 0 {
		t.Errorf("Scan after ScanRaw leaked state: words=%d key=%q stats=%+v", sc.Words(), sc.Key(0), sc.Stats)
	}
}

// TestScanZeroAlloc pins the tentpole property: a warmed scratch processes
// a tweet without allocating, under either spec.
func TestScanZeroAlloc(t *testing.T) {
	var sc Scratch
	for name, scan := range map[string]func(string){"Scan": sc.Scan, "ScanRaw": sc.ScanRaw} {
		scan(benchTweet) // warm the arenas
		allocs := testing.AllocsPerRun(100, func() {
			scan(benchTweet)
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per tweet, want 0", name, allocs)
		}
	}
}

// TestByteClassMatchesUnicode pins the ASCII fast path's class table to the
// unicode predicates the rune path (and the legacy pipeline) uses.
func TestByteClassMatchesUnicode(t *testing.T) {
	for c := 0; c < 256; c++ {
		r, k := rune(c), byteClass[c]
		if c >= utf8.RuneSelf {
			if k != 0 {
				t.Errorf("byte %#x: class %#x, want 0 (rune path)", c, k)
			}
			continue
		}
		want := map[uint8]bool{
			bSpace: unicode.IsSpace(r),
			bUpper: unicode.IsUpper(r),
			bLower: unicode.IsLetter(r) && !unicode.IsUpper(r),
			bDigit: unicode.IsDigit(r),
			bTerm:  r == '.' || r == '!' || r == '?',
			bApos:  r == '\'',
		}
		for bit, on := range want {
			if (k&bit != 0) != on {
				t.Errorf("byte %q: class bit %#x = %v, want %v", r, bit, k&bit != 0, on)
			}
		}
		if k&bUpper != 0 && rune(c|0x20) != unicode.ToLower(r) {
			t.Errorf("byte %q: |0x20 lowers to %q, unicode.ToLower to %q", r, c|0x20, unicode.ToLower(r))
		}
	}
}
