package sentiment

import (
	"strings"
	"testing"
	"unicode"
)

func analyze(t *testing.T, s string) Score {
	t.Helper()
	return New().Analyze(s)
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

func TestLexicalHelpers(t *testing.T) {
	if !HasTerm("hate") || HasTerm("xyzzy") {
		t.Fatalf("HasTerm misbehaves")
	}
	if TermStrength("hate") >= 0 {
		t.Fatalf("TermStrength(hate) = %d, want negative", TermStrength("hate"))
	}
	if len(PositiveTerms()) == 0 || len(NegativeTerms()) == 0 {
		t.Fatalf("term exports empty")
	}
	for _, w := range PositiveTerms() {
		if TermStrength(w) <= 0 {
			t.Fatalf("positive term %q has strength %d", w, TermStrength(w))
		}
	}
}

// TestStepperMatchesAnalyze feeds the stepper what the feature package's
// fused table would resolve for each token and requires Analyze's score.
func TestStepperMatchesAnalyze(t *testing.T) {
	words := Words()
	for _, text := range []string{
		"not very good", "so damn bad", "barely fucking awful", "never ever good",
		"xD this is great", "I HATE you", "coooool story", "daaamn", "sooo good",
		"really not bad at all", "good xD not bad", "hardly lovely",
	} {
		var st Stepper
		st.Reset()
		for _, raw := range strings.Fields(text) {
			if v, ok := LetterEmoticons()[raw]; ok {
				st.Score(v)
				continue
			}
			w := normalizeToken(raw)
			long := hasElongation(raw)
			word := words[w]
			if long && word == (Word{}) {
				word.Strength = words[string(Squeeze(nil, []byte(w)))].Strength
			}
			st.Step(word, isShout(raw), long)
		}
		if got, want := st.Finish(0), New().Analyze(text); got != want {
			t.Errorf("stepper(%q) = %+v, Analyze %+v", text, got, want)
		}
	}
}

// TestLetterEmoticons: exactly the emoticons text cleaning leaves intact
// (letters only) are offered to the fast path.
func TestLetterEmoticons(t *testing.T) {
	got := LetterEmoticons()
	for e, v := range emoticons {
		letters := normalizeToken(e) != "" && !strings.ContainsFunc(e, func(r rune) bool { return !unicode.IsLetter(r) })
		if gv, ok := got[e]; ok != letters || (ok && gv != v) {
			t.Errorf("emoticon %q: offered=%v strength=%d, letters-only=%v strength=%d", e, ok, gv, letters, v)
		}
	}
	if got["xD"] != 4 {
		t.Errorf(`LetterEmoticons()["xD"] = %d, want 4`, got["xD"])
	}
}
