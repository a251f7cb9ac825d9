package text

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// The scanner case by case: Scan is the paper's preprocessing (p=ON),
// ScanRaw keeps the raw fields (p=OFF).

// scanWords returns Scan's cleaned words.
func scanWords(s string) []string {
	var sc Scratch
	sc.Scan(s)
	return collect(sc.Words(), sc.Clean)
}

// rawTokens returns ScanRaw's lowered tokens, one per field ("" for a field
// without a letter or digit).
func rawTokens(s string) []string {
	var sc Scratch
	sc.ScanRaw(s)
	return collect(sc.Words(), sc.Lower)
}

func collect(n int, at func(int) []byte) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(at(i))
	}
	return out
}

// bothSpecs returns the stats of Scan and of ScanRaw over s.
func bothSpecs(s string) [2]ScanStats {
	var on, off Scratch
	on.Scan(s)
	off.ScanRaw(s)
	return [2]ScanStats{on.Stats, off.Stats}
}

func TestCleanRemovesTweetContent(t *testing.T) {
	in := "RT @user1: Check this out http://t.co/abc #winning 100%!!!"
	got := strings.Join(scanWords(in), " ")
	for _, banned := range []string{"@", "#", "http", "RT", "100", "%", "!"} {
		if strings.Contains(got, banned) {
			t.Errorf("Scan left %q in %q", banned, got)
		}
	}
	if !strings.Contains(got, "Check this out") {
		t.Errorf("Scan dropped real content: %q", got)
	}
}

func TestCleanKeepsCase(t *testing.T) {
	if got := strings.Join(scanWords("STOP that NOW"), " "); got != "STOP that NOW" {
		t.Fatalf("Scan altered case: %q", got)
	}
}

// TestCleanSelectiveOptions: what cleaning removes, the raw spec keeps as
// tokens — mentions, hashtags, URLs, numbers — and its fields keep their
// punctuation.
func TestCleanSelectiveOptions(t *testing.T) {
	in := "@you see #tag at http://x.co 42 ok!"
	if got := strings.Join(scanWords(in), " "); got != "see at ok" {
		t.Errorf("Scan words = %q, want %q", got, "see at ok")
	}
	want := []string{"you", "see", "tag", "at", "http://x.co", "42", "ok"}
	if got := rawTokens(in); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ScanRaw tokens = %q, want %q", got, want)
	}
	var sc Scratch
	sc.ScanRaw(in)
	if got := string(sc.Clean(6)); got != "ok!" {
		t.Errorf("ScanRaw field 6 = %q, want %q", got, "ok!")
	}
}

func TestCleanEmptyAndWhitespace(t *testing.T) {
	for _, in := range []string{"", "   \t \n "} {
		if got := scanWords(in); len(got) != 0 {
			t.Fatalf("Scan(%q) = %q", in, got)
		}
		if got := rawTokens(in); len(got) != 0 {
			t.Fatalf("ScanRaw(%q) = %q", in, got)
		}
	}
	if got := strings.Join(scanWords("a    b\t\tc"), " "); got != "a b c" {
		t.Fatalf("whitespace not condensed: %q", got)
	}
}

func TestCleanKeepsContractions(t *testing.T) {
	if got := strings.Join(scanWords("don't stop"), " "); got != "don't stop" {
		t.Fatalf("contraction mangled: %q", got)
	}
	var sc Scratch
	sc.ScanRaw("'don't' stop")
	if _, _, _, apostrophe := sc.WordInfo(0); string(sc.Key(0)) != "don't" || !apostrophe {
		t.Fatalf("raw key = %q (apostrophe %v), want \"don't\" with one", sc.Key(0), apostrophe)
	}
}

func TestCleanNeverAddsContent(t *testing.T) {
	f := func(s string) bool {
		// Every letter of a word must exist in the input (cleaning only
		// removes content).
		inLetters := map[rune]int{}
		for _, r := range s {
			inLetters[r]++
		}
		for _, r := range strings.Join(scanWords(s), "") {
			if r == '\'' {
				continue
			}
			if inLetters[r] == 0 {
				return false
			}
			inLetters[r]--
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenize(t *testing.T) {
	want := []string{"hello", "world", "really"}
	if got := rawTokens("Hello, world! (really)"); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ScanRaw tokens = %q, want %q", got, want)
	}
	if got := rawTokens("... !!! ---"); strings.Join(got, "") != "" {
		t.Fatalf("pure punctuation should yield no token, got %q", got)
	}
}

func TestLowerTokens(t *testing.T) {
	if got := rawTokens("HeLLo WORLD"); got[0] != "hello" || got[1] != "world" {
		t.Fatalf("ScanRaw tokens = %q", got)
	}
}

func TestSplitSentences(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"One. Two! Three?", 3},
		{"No terminator", 1},
		{"Trailing dots...", 1},
		{"", 0},
		{"A. B.\nC", 3},
		{"!!!", 0},
	}
	for _, c := range cases {
		var sc Scratch
		if sc.ScanRaw(c.in); sc.Stats.Sentences != c.want {
			t.Errorf("ScanRaw(%q): %d sentences, want %d", c.in, sc.Stats.Sentences, c.want)
		}
	}
}

func TestIsUpperWord(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"STOP", true},
		{"Stop", false},
		{"S", false}, // single letters don't count as shouting
		{"A1B", true},
		{"stop", false},
		{"", false},
	}
	for _, c := range cases {
		for spec, st := range bothSpecs(c.in) {
			if got := st.UpperWords == 1; got != c.want {
				t.Errorf("spec %d: %q shouted = %v, want %v", spec, c.in, got, c.want)
			}
		}
	}
}

func TestCountUpperWords(t *testing.T) {
	for spec, st := range bothSpecs("RT STOP THAT @NOW #WOW http://X.CO ok") {
		if st.UpperWords != 2 {
			t.Fatalf("spec %d: %d upper words, want 2 (STOP, THAT)", spec, st.UpperWords)
		}
	}
}

func TestCountTokenKind(t *testing.T) {
	for spec, st := range bothSpecs("see @a and @b at http://x.co #yes #no #maybe") {
		if st.Mentions != 2 || st.Hashtags != 3 || st.URLs != 1 {
			t.Errorf("spec %d: mentions/hashtags/urls = %d/%d/%d, want 2/3/1", spec, st.Mentions, st.Hashtags, st.URLs)
		}
	}
}

func TestMeanWordLength(t *testing.T) {
	var sc Scratch
	if sc.ScanRaw("ab abcd"); sc.Words() != 2 || sc.Stats.LetterSum != 6 {
		t.Fatalf("ScanRaw: %d words, %d letters; want 2 words of 6 letters (mean 3)", sc.Words(), sc.Stats.LetterSum)
	}
	if sc.ScanRaw(""); sc.Words() != 0 || sc.Stats.LetterSum != 0 {
		t.Fatalf("empty text: %d words, %d letters", sc.Words(), sc.Stats.LetterSum)
	}
}

func TestWordsPerSentence(t *testing.T) {
	var sc Scratch
	sc.ScanRaw("one two three. four five.")
	if st := sc.Stats; st.SentenceWords != 5 || st.Sentences != 2 {
		t.Fatalf("ScanRaw: %d words in %d sentences, want 5 in 2 (2.5 each)", st.SentenceWords, st.Sentences)
	}
	if sc.ScanRaw(""); sc.Stats.Sentences != 0 {
		t.Fatalf("empty text: %d sentences", sc.Stats.Sentences)
	}
}

func TestHasElongation(t *testing.T) {
	cases := []struct {
		in        string
		raw, want bool
	}{
		{"sooo", false, true},
		{"soo", false, false},
		{"bad...", false, false}, // cleaning drops the dots
		{"bad...", true, true},   // the raw spec counts runs of any rune
	}
	for _, c := range cases {
		var sc Scratch
		if c.raw {
			sc.ScanRaw(c.in)
		} else {
			sc.Scan(c.in)
		}
		if _, _, elongated, _ := sc.WordInfo(0); elongated != c.want {
			t.Errorf("%q (raw %v): elongated = %v, want %v", c.in, c.raw, elongated, c.want)
		}
	}
}

func TestTokenizePropertyNoPunctAtEdges(t *testing.T) {
	alnum := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	f := func(s string) bool {
		for _, tok := range rawTokens(s) {
			if tok == "" {
				continue
			}
			runes := []rune(tok)
			if !alnum(runes[0]) || !alnum(runes[len(runes)-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
