package sentiment_test

import (
	"strings"
	"testing"
	"unicode"

	"redhanded/internal/feature"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// rawExtractor scores under p=OFF, where the sentiment step sees every raw
// field of the text: emoticons, punctuation and '!' included.
var rawExtractor = feature.NewExtractor(feature.Config{})

// analyze scores one text through the lexicon and the Stepper, as the
// feature extractor resolves its words.
func analyze(t *testing.T, s string) sentiment.Score {
	t.Helper()
	x := rawExtractor.Extract(&twitterdata.Tweet{Text: s})
	return sentiment.Score{Positive: int(x[feature.SentimentScorePos]), Negative: int(x[feature.SentimentScoreNeg])}
}

func TestNeutralText(t *testing.T) {
	got := analyze(t, "the meeting is at noon tomorrow")
	if got.Positive != 1 || got.Negative != -1 {
		t.Fatalf("neutral text scored %+v, want {1,-1}", got)
	}
}

func TestEmptyText(t *testing.T) {
	got := analyze(t, "")
	if got.Positive != 1 || got.Negative != -1 {
		t.Fatalf("empty text scored %+v, want {1,-1}", got)
	}
}

func TestPositiveDetection(t *testing.T) {
	got := analyze(t, "what a wonderful day")
	if got.Positive < 3 {
		t.Fatalf("positive text scored %+v", got)
	}
	if got.Negative != -1 {
		t.Fatalf("positive text has negative score %+v", got)
	}
}

func TestNegativeDetection(t *testing.T) {
	got := analyze(t, "you are a pathetic worthless idiot")
	if got.Negative > -4 {
		t.Fatalf("abusive text scored %+v, want Negative <= -4", got)
	}
}

func TestBoosterStrengthens(t *testing.T) {
	plain := analyze(t, "this is bad")
	boosted := analyze(t, "this is really bad")
	if boosted.Negative >= plain.Negative {
		t.Fatalf("booster did not strengthen: plain %+v boosted %+v", plain, boosted)
	}
}

func TestDiminisherWeakens(t *testing.T) {
	plain := analyze(t, "this is awful")
	dimmed := analyze(t, "this is slightly awful")
	if dimmed.Negative <= plain.Negative {
		t.Fatalf("diminisher did not weaken: plain %+v dimmed %+v", plain, dimmed)
	}
}

func TestNegationFlips(t *testing.T) {
	got := analyze(t, "this is not good")
	if got.Positive > 1 {
		t.Fatalf("negated positive still positive: %+v", got)
	}
	if got.Negative >= -1 {
		t.Fatalf("negated positive should turn negative: %+v", got)
	}
}

func TestExclamationIntensifies(t *testing.T) {
	plain := analyze(t, "i hate this")
	excl := analyze(t, "i hate this!!!")
	if excl.Negative >= plain.Negative {
		t.Fatalf("exclamations did not intensify: %+v vs %+v", plain, excl)
	}
}

func TestShoutingIntensifies(t *testing.T) {
	plain := analyze(t, "i hate this")
	shout := analyze(t, "i HATE this")
	if shout.Negative >= plain.Negative {
		t.Fatalf("shouting did not intensify: %+v vs %+v", plain, shout)
	}
}

func TestElongationIntensifies(t *testing.T) {
	plain := analyze(t, "this is bad")
	elong := analyze(t, "this is baaaaad")
	if elong.Negative >= plain.Negative {
		t.Fatalf("elongation did not intensify: %+v vs %+v", plain, elong)
	}
}

func TestScoreBounds(t *testing.T) {
	extreme := analyze(t, "FUCKING WORTHLESS SCUM!!! absolutely DESPISE you, utterly VILE rapist murderer")
	if extreme.Negative < -5 || extreme.Negative > -1 {
		t.Fatalf("negative out of bounds: %+v", extreme)
	}
	joy := analyze(t, "absolutely PERFECT, utterly FANTASTIC, incredibly amazing!!!")
	if joy.Positive > 5 || joy.Positive < 1 {
		t.Fatalf("positive out of bounds: %+v", joy)
	}
}

func TestMixedSentiment(t *testing.T) {
	got := analyze(t, "i love the show but the host is an idiot")
	if got.Positive < 3 || got.Negative > -3 {
		t.Fatalf("mixed text should carry both polarities: %+v", got)
	}
}

func TestEmoticons(t *testing.T) {
	pos := analyze(t, "great game :)")
	if pos.Positive < 3 {
		t.Fatalf("positive emoticon not scored: %+v", pos)
	}
	neg := analyze(t, "missed the train :(")
	if neg.Negative > -3 {
		t.Fatalf("negative emoticon not scored: %+v", neg)
	}
	heart := analyze(t, "this <3")
	if heart.Positive < 4 {
		t.Fatalf("heart emoticon not scored: %+v", heart)
	}
	broken := analyze(t, "everything </3 today")
	if broken.Negative > -4 {
		t.Fatalf("broken heart not scored: %+v", broken)
	}
	// Emoticons only match as standalone tokens.
	embedded := analyze(t, "see http://x.co/:(abc")
	if embedded.Negative < -1 {
		t.Fatalf("embedded emoticon should not score: %+v", embedded)
	}
}

// TestStepperMatchesAnalyze feeds the stepper each field of a text the way
// the extractor resolves it under p=OFF and requires the score Analyze gave
// on ca89b3d; the p=OFF extractor must give the same.
func TestStepperMatchesAnalyze(t *testing.T) {
	words, emoticons := sentiment.Words(), sentiment.Emoticons()
	for _, c := range []struct {
		text string
		want sentiment.Score
	}{
		{"not very good", sentiment.Score{Positive: 1, Negative: -3}},
		{"so damn bad", sentiment.Score{Positive: 1, Negative: -5}},
		{"barely fucking awful", sentiment.Score{Positive: 4, Negative: -1}},
		{"never ever good", sentiment.Score{Positive: 3, Negative: -1}},
		{"xD this is great", sentiment.Score{Positive: 4, Negative: -1}},
		{"I HATE you", sentiment.Score{Positive: 1, Negative: -5}},
		{"coooool story", sentiment.Score{Positive: 1, Negative: -1}},
		{"daaamn", sentiment.Score{Positive: 1, Negative: -4}},
		{"sooo good", sentiment.Score{Positive: 3, Negative: -1}},
		{"really not bad at all", sentiment.Score{Positive: 3, Negative: -1}},
		{"good xD not bad", sentiment.Score{Positive: 4, Negative: -1}},
		{"hardly lovely", sentiment.Score{Positive: 1, Negative: -2}},
	} {
		var st sentiment.Stepper
		st.Reset()
		for _, raw := range strings.Fields(c.text) {
			if v, ok := emoticons[raw]; ok {
				st.Score(v)
				continue
			}
			w := strings.ReplaceAll(strings.ToLower(strings.TrimFunc(raw, notLetter)), "'", "")
			long := elongated(raw)
			word := words[w]
			if long && word == (sentiment.Word{}) {
				word.Strength = words[string(sentiment.Squeeze(nil, []byte(w)))].Strength
			}
			st.Step(word, shouted(raw), long)
		}
		if got := st.Finish(strings.Count(c.text, "!")); got != c.want {
			t.Errorf("stepper(%q) = %+v, Analyze %+v", c.text, got, c.want)
		}
		if got := analyze(t, c.text); got != c.want {
			t.Errorf("p=OFF extract(%q) = %+v, Analyze %+v", c.text, got, c.want)
		}
	}
}

func notLetter(r rune) bool { return !unicode.IsLetter(r) }

// shouted reports whether s has at least two letters, all uppercase.
func shouted(s string) bool {
	letters, uppers := 0, 0
	for _, r := range s {
		if unicode.IsLetter(r) {
			letters++
			if unicode.IsUpper(r) {
				uppers++
			}
		}
	}
	return letters >= 2 && uppers == letters
}

// elongated reports whether s holds a rune repeated three times in a row.
func elongated(s string) bool {
	run, prev := 0, rune(-1)
	for _, r := range s {
		if r == prev {
			run++
		} else {
			prev, run = r, 1
		}
		if run >= 3 {
			return true
		}
	}
	return false
}

// TestLetterEmoticons: under p=OFF every emoticon scores its strength; under
// p=ON exactly the emoticons text cleaning leaves intact (letters only) do,
// and the rest score neutral.
func TestLetterEmoticons(t *testing.T) {
	cleaned := feature.NewExtractor(feature.Config{Preprocess: true})
	for e, v := range sentiment.Emoticons() {
		want := sentiment.Score{Positive: max(1, v), Negative: min(-1, v)}
		if got := analyze(t, e); got != want {
			t.Errorf("p=OFF emoticon %q scored %+v, want %+v", e, got, want)
		}
		x := cleaned.Extract(&twitterdata.Tweet{Text: e})
		got := sentiment.Score{Positive: int(x[feature.SentimentScorePos]), Negative: int(x[feature.SentimentScoreNeg])}
		if !strings.ContainsFunc(e, notLetter) {
			if got != want {
				t.Errorf("p=ON letter emoticon %q scored %+v, want %+v", e, got, want)
			}
		} else if neutral := (sentiment.Score{Positive: 1, Negative: -1}); got != neutral {
			t.Errorf("p=ON emoticon %q survived cleaning: scored %+v, want %+v", e, got, neutral)
		}
	}
	if got := analyze(t, "xD"); got.Positive != 4 {
		t.Errorf(`"xD" scored %+v, want Positive 4`, got)
	}
}
