package lexicon_test

import (
	"testing"

	"redhanded/internal/feature"
	"redhanded/internal/twitterdata"
)

// swears counts the seed swear words of a text as the feature extractor
// does under each spec: tokens lowered, then looked up in the seed list.
func swears(t *testing.T, s string) [2]float64 {
	t.Helper()
	var n [2]float64
	for i, preprocess := range []bool{true, false} {
		e := feature.NewExtractor(feature.Config{Preprocess: preprocess})
		n[i] = e.Extract(&twitterdata.Tweet{Text: s})[feature.CntSwearWords]
	}
	return n
}

func TestIsSwear(t *testing.T) {
	cases := []struct {
		w    string
		want float64
	}{
		{"fuck", 1},
		{"FUCK", 1}, // case-insensitive
		{"bitch", 1},
		{"hello", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := swears(t, c.w); got != [2]float64{c.want, c.want} {
			t.Errorf("%q counts as %v swear words (p=ON, p=OFF), want %v", c.w, got, c.want)
		}
	}
}

func TestCountSwears(t *testing.T) {
	// "fucking" and "shit" are seeds; "idiot" is insult vocabulary but not
	// in the curse list (mirrors noswearing.com scope).
	for _, n := range swears(t, "you fucking idiot shit") {
		if n < 2 {
			t.Fatalf("swear count = %v, want >= 2", n)
		}
	}
}
