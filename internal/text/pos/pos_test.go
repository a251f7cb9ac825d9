package pos

import (
	"strings"
	"testing"
)

func tagOf(t *testing.T, sentence []string, i int) Tag {
	t.Helper()
	return New().TagTokens(sentence)[i]
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
	c := New().Count([]string{"the", "ugly", "dog", "runs", "quickly"})
	if c.Adjectives != 1 || c.Adverbs != 1 || c.Verbs != 1 || c.Nouns != 1 {
		t.Fatalf("Count = %+v, want 1 each of ADJ/ADV/VERB/NOUN", c)
	}
	if c.Total != 5 {
		t.Fatalf("Total = %d, want 5", c.Total)
	}
}

func TestEmptyAndGarbage(t *testing.T) {
	tags := New().TagTokens([]string{"", "123", "..."})
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

// TestTagOpenLowerMatchesTagTokens pins the last-byte-indexed suffix rules to the
// three suffix lists of the reference tagger: every suffix, at the lengths
// either side of its minimum, under each left context, plus words that
// match suffixes of several classes.
func TestTagOpenLowerMatchesTagTokens(t *testing.T) {
	tg := New()
	suffixes := strings.Fields("ful ous ive able ible ish less ic al ant ent est ing ed ize ise ify ate " +
		"tion sion ness ment ity ship hood ism ist er or ology ly")
	var words []string
	for _, s := range suffixes {
		for _, stem := range []string{"", "z", "zq", "zqx", "zqxl"} {
			words = append(words, stem+s)
		}
	}
	words = append(words, "government", "hopelessness", "zqly", "zly", "ly", "y", "z", "économiste", "zqé")
	closed := ClosedClass()
	for _, c := range closedClasses {
		for w := range c.words {
			if _, ok := closed[w]; !ok {
				t.Fatalf("ClosedClass() misses %q", w)
			}
		}
	}
	for _, w := range words {
		if _, ok := closed[w]; ok {
			continue
		}
		for _, prev := range []string{"", "to", "the", "zq"} {
			tokens := []string{w}
			if prev != "" {
				tokens = []string{prev, w}
			}
			tags := tg.TagTokens(tokens)
			want := tags[len(tags)-1]
			if got := TagOpenLower([]byte(w), prev == "to", prev == "the"); got != want {
				t.Errorf("TagOpenLower(%q) after %q = %v, TagTokens %v", w, prev, got, want)
			}
		}
	}
	for w, want := range closed {
		if got := tg.TagTokens([]string{"to", w})[1]; got != want {
			t.Errorf("ClosedClass()[%q] = %v, TagTokens %v", w, want, got)
		}
	}
}
