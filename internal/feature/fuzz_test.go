package feature

import (
	"strings"
	"testing"

	"redhanded/internal/twitterdata"
)

// FuzzExtractEquivalence drives the whole extractor — scanner, POS
// stepper, sentiment stepper, swear lookup, BoW snapshot — with arbitrary
// text and asserts the fast path matches the legacy path bit for bit.
func FuzzExtractEquivalence(f *testing.F) {
	seeds := []string{
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
		// The scanner's ASCII fast-path boundary (see text's nastyInputs),
		// around words the fused table knows.
		"very\vgood\fso\x1cbad\x1d not\x1egood\x1f damn\x7fit",
		"so\u0085good not\u00a0bad to\u00a0run the\u0085running",
		"hate\x80 \x80love \xffnot\xff good",
		"İdiot ſo Kill \u212aill \u212a\u212a\u212a",
		"xD XD xd x'D xDD don't donnn't sooo'o",
		"to " + strings.Repeat("fuckINg'", 9<<10),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	e := NewExtractor(DefaultConfig())
	f.Fuzz(func(t *testing.T, text string) {
		tw := twitterdata.Tweet{
			IDStr: "t1",
			Text:  text,
			User: twitterdata.User{
				IDStr:          "u1",
				FollowersCount: 3,
				FriendsCount:   5,
				StatusesCount:  7,
				ListedCount:    1,
			},
		}
		slow := make([]float64, NumFeatures)
		e.extractLegacyInto(slow, &tw)
		fast := e.ExtractInto(make([]float64, NumFeatures), &tw)
		if diff := vectorDiff(slow, fast); diff != "" {
			t.Fatalf("text %q: %s", text, diff)
		}
	})
}
