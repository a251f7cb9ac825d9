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
}

// TestScanZeroAlloc pins the tentpole property: a warmed scratch processes
// a tweet without allocating.
func TestScanZeroAlloc(t *testing.T) {
	var sc Scratch
	sc.Scan(benchTweet) // warm the arenas
	allocs := testing.AllocsPerRun(100, func() {
		sc.Scan(benchTweet)
	})
	if allocs != 0 {
		t.Errorf("Scan allocates %.1f times per tweet, want 0", allocs)
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
