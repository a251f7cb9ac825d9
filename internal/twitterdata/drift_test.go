package twitterdata

import (
	"strings"
	"testing"

	"redhanded/internal/text/lexicon"
)

// countSwears tallies lexicon swear words in a tweet text (lowercased,
// rough tokenization — plenty for a distribution-shift assertion).
func countSwears(text string) int {
	n := 0
	for _, w := range strings.Fields(strings.ToLower(text)) {
		w = strings.Trim(w, ".,!?#@:")
		if lexicon.IsSwear(w) {
			n++
		}
	}
	return n
}

func TestGenerateAggressionShiftSwapsClassProfiles(t *testing.T) {
	cfg := AggressionConfig{
		Seed: 9, Days: 10,
		NormalCount: 3000, AbusiveCount: 1500, HatefulCount: 300,
		ShiftAt: 2400,
	}
	data := GenerateAggression(cfg)
	if len(data) != 4800 {
		t.Fatalf("generated %d tweets, want 4800", len(data))
	}

	mean := func(lo, hi int, label string) float64 {
		var sum, n float64
		for _, tw := range data[lo:hi] {
			if tw.Label == label {
				sum += float64(countSwears(tw.Text))
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no %s tweets in [%d,%d)", label, lo, hi)
		}
		return sum / n
	}

	preAbusive := mean(0, cfg.ShiftAt, LabelAbusive)
	postAbusive := mean(cfg.ShiftAt, len(data), LabelAbusive)
	preNormal := mean(0, cfg.ShiftAt, LabelNormal)
	postNormal := mean(cfg.ShiftAt, len(data), LabelNormal)

	// The swap moves the swear mass between the classes: abusive tweets
	// shed explicit swears (evasion), normal traffic picks them up.
	if postAbusive >= preAbusive/2 {
		t.Errorf("abusive swear mean did not collapse: pre %.2f, post %.2f", preAbusive, postAbusive)
	}
	if postNormal <= preNormal*2 {
		t.Errorf("normal swear mean did not jump: pre %.2f, post %.2f", preNormal, postNormal)
	}

	// Labels stay with the classes, and the shift leaves counts intact.
	if data[cfg.ShiftAt].Label == "" {
		t.Error("shifted tweets lost their labels")
	}
}

func TestGenerateAggressionNoShiftByDefault(t *testing.T) {
	a := GenerateAggression(AggressionConfig{Seed: 9, Days: 2, NormalCount: 50, AbusiveCount: 20, HatefulCount: 5})
	b := GenerateAggression(AggressionConfig{Seed: 9, Days: 2, NormalCount: 50, AbusiveCount: 20, HatefulCount: 5, ShiftAt: 0})
	for i := range a {
		if a[i].Text != b[i].Text || a[i].Label != b[i].Label {
			t.Fatalf("ShiftAt=0 changed generation at %d", i)
		}
	}
}
