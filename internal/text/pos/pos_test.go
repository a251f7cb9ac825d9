package pos

import (
	"strings"
	"testing"
	"unicode"
)

// tagAll tags a token sequence the way the feature extractor does: each
// token keyed by its lowered letters, a closed-class word by its set, any
// other by TagOpenLower in the context of the previous token.
func tagAll(tokens []string) []Tag {
	closed := ClosedClass()
	tags := make([]Tag, len(tokens))
	afterTo, afterDeterminer := false, false
	for i, tok := range tokens {
		key := strings.ToLower(strings.TrimFunc(tok, func(r rune) bool { return !unicode.IsLetter(r) }))
		tag, ok := closed[key]
		if !ok {
			tag = TagOpenLower([]byte(key), afterTo, afterDeterminer)
		}
		tags[i] = tag
		afterTo, afterDeterminer = key == "to", tag == Determiner
	}
	return tags
}

func tagOf(t *testing.T, sentence []string, i int) Tag {
	t.Helper()
	return tagAll(sentence)[i]
}

func TestClosedClassWords(t *testing.T) {
	cases := []struct {
		word string
		want Tag
	}{
		{"the", Determiner},
		{"they", Pronoun},
		{"with", Preposition},
		{"and", Conjunction},
		{"lol", Interjection},
		{"is", Verb},
		{"very", Adverb},
		{"good", Adjective},
		{"run", Verb},
	}
	for _, c := range cases {
		if got := tagOf(t, []string{c.word}, 0); got != c.want {
			t.Errorf("tag(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestSuffixRules(t *testing.T) {
	cases := []struct {
		word string
		want Tag
	}{
		{"quickly", Adverb},
		{"wonderful", Adjective},
		{"spiteful", Adjective},
		{"flexible", Adjective},
		{"jumping", Verb},
		{"zoomed", Verb},
		{"apparition", Noun},
		{"blargness", Noun},
		{"zork", Noun}, // unknown word defaults to noun
	}
	for _, c := range cases {
		if got := tagOf(t, []string{c.word}, 0); got != c.want {
			t.Errorf("tag(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestContextRules(t *testing.T) {
	// "to frobnicate" -> verb even though unknown.
	if got := tagOf(t, []string{"to", "frobnicate"}, 1); got != Verb {
		t.Errorf("to+word = %v, want Verb", got)
	}
	// "the jumping" -> noun (determiner context).
	if got := tagOf(t, []string{"the", "jumping"}, 1); got != Noun {
		t.Errorf("det+Xing = %v, want Noun", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	if got := tagOf(t, []string{"QUICKLY"}, 0); got != Adverb {
		t.Errorf("tag(QUICKLY) = %v, want Adverb", got)
	}
}

func TestCount(t *testing.T) {
	counts := map[Tag]int{}
	for _, tag := range tagAll([]string{"the", "ugly", "dog", "runs", "quickly"}) {
		counts[tag]++
	}
	if counts[Adjective] != 1 || counts[Adverb] != 1 || counts[Verb] != 1 || counts[Noun] != 1 || counts[Determiner] != 1 {
		t.Fatalf("tags = %v, want 1 each of DET/ADJ/NOUN/VERB/ADV", counts)
	}
}

func TestEmptyAndGarbage(t *testing.T) {
	tags := tagAll([]string{"", "123", "..."})
	for i, tag := range tags {
		if tag != Other {
			t.Errorf("token %d tagged %v, want Other", i, tag)
		}
	}
}

func TestTagString(t *testing.T) {
	if Noun.String() != "NOUN" || Adverb.String() != "ADV" || Tag(99).String() != "OTHER" {
		t.Fatalf("Tag.String misbehaves: %v %v %v", Noun, Adverb, Tag(99))
	}
}

// TestTagOpenLowerMatchesTagTokens pins the last-byte-indexed suffix rules to
// the tags the reference tagger's TagTokens gave on ca89b3d: every suffix, at
// the lengths either side of its minimum, under each left context, plus words
// that match suffixes of several classes. Each tag string holds one letter
// per context — none, "to", "the", "zq" — with N noun, V verb, J adjective,
// R adverb; "----" marks a closed-class word.
func TestTagOpenLowerMatchesTagTokens(t *testing.T) {
	letter := map[byte]Tag{'N': Noun, 'V': Verb, 'J': Adjective, 'R': Adverb}
	contexts := []string{"", "to", "the", "zq"}
	closed := ClosedClass()
	for _, c := range closedClasses {
		for w := range c.words {
			if _, ok := closed[w]; !ok {
				t.Fatalf("ClosedClass() misses %q", w)
			}
		}
	}
	check := func(w, want string) {
		t.Helper()
		if _, ok := closed[w]; ok != (want == "----") {
			t.Errorf("%q: closed-class %v, want tags %q", w, ok, want)
			return
		}
		if want == "----" {
			return
		}
		for i, prev := range contexts {
			if got := TagOpenLower([]byte(w), prev == "to", prev == "the"); got != letter[want[i]] {
				t.Errorf("TagOpenLower(%q) after %q = %v, TagTokens %v", w, prev, got, letter[want[i]])
			}
		}
	}
	stems := []string{"", "z", "zq", "zqx", "zqxl"}
	for _, c := range []struct{ suffix, tags string }{
		{"ful", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"ous", "NVNN NVNN JJJJ JJJJ JJJJ"},
		{"ive", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"able", "---- NVNN JJJJ JJJJ JJJJ"},
		{"ible", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"ish", "NVNN NVNN JJJJ JJJJ JJJJ"},
		{"less", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"ic", "NVNN NVNN JJJJ JJJJ JJJJ"},
		{"al", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"ant", "NVNN NVNN JJJJ JJJJ JJJJ"},
		{"ent", "NVNN NVNN JJJJ JJJJ JJJJ"}, {"est", "NVNN NVNN JJJJ JJJJ JJJJ"},
		{"ing", "NVNN NVNN VVNV VVNV VVNV"}, {"ed", "NVNN NVNN VVNV VVNV VVNV"},
		{"ize", "NVNN NVNN VVNV VVNV VVNV"}, {"ise", "NVNN NVNN VVNV VVNV VVNV"},
		{"ify", "NVNN NVNN VVNV VVNV VVNV"}, {"ate", "NVNN NVNN VVNV VVNV VVNV"},
		{"tion", "NVNN NVNN NNNN NNNN NNNN"}, {"sion", "NVNN NVNN NNNN NNNN NNNN"},
		{"ness", "NVNN NVNN NNNN NNNN NNNN"}, {"ment", "NVNN JJJJ JJJJ JJJJ JJJJ"},
		{"ity", "NVNN NVNN NNNN NNNN NNNN"}, {"ship", "NVNN NVNN NNNN NNNN NNNN"},
		{"hood", "NVNN NVNN NNNN NNNN NNNN"}, {"ism", "NVNN NVNN NNNN NNNN NNNN"},
		{"ist", "NVNN NVNN NNNN NNNN NNNN"}, {"er", "NVNN NVNN NNNN NNNN NNNN"},
		{"or", "---- NVNN NNNN NNNN NNNN"}, {"ology", "NVNN NVNN NNNN NNNN NNNN"},
		{"ly", "NVNN NVNN RVRR RVRR RVRR"},
	} {
		for i, tags := range strings.Fields(c.tags) {
			check(stems[i]+c.suffix, tags)
		}
	}
	for _, c := range []struct{ word, tags string }{
		{"government", "JJJJ"}, {"hopelessness", "NNNN"}, {"zqly", "RVRR"}, {"zly", "NVNN"},
		{"ly", "NVNN"}, {"y", "NVNN"}, {"z", "NVNN"}, {"économiste", "NVNN"}, {"zqé", "NVNN"},
	} {
		check(c.word, c.tags)
	}
	// Words in several closed-class sets take the tag of the first.
	for w, want := range map[string]Tag{"again": Preposition, "yet": Conjunction, "mean": Adjective, "open": Adjective, "so": Conjunction} {
		if got := closed[w]; got != want {
			t.Errorf("ClosedClass()[%q] = %v, TagTokens %v", w, got, want)
		}
	}
}
