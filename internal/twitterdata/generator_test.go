package twitterdata

import (
	"math"
	"strings"
	"testing"
)

func TestGenerateAggressionCounts(t *testing.T) {
	cfg := AggressionConfig{Seed: 1, Days: 10, NormalCount: 1000, AbusiveCount: 500, HatefulCount: 100}
	data := GenerateAggression(cfg)
	if len(data) != 1600 {
		t.Fatalf("total = %d, want 1600", len(data))
	}
	counts := map[string]int{}
	for i := range data {
		counts[data[i].Label]++
	}
	if counts[LabelNormal] != 1000 || counts[LabelAbusive] != 500 || counts[LabelHateful] != 100 {
		t.Fatalf("class counts = %v", counts)
	}
}

func TestGenerateAggressionDayStructure(t *testing.T) {
	cfg := AggressionConfig{Seed: 2, Days: 5, NormalCount: 500, AbusiveCount: 250, HatefulCount: 50}
	data := GenerateAggression(cfg)
	prevDay := 0
	perDay := map[int]int{}
	for i := range data {
		d := data[i].Day
		if d < prevDay {
			t.Fatalf("days not monotonically ordered: %d after %d", d, prevDay)
		}
		prevDay = d
		perDay[d]++
	}
	if len(perDay) != 5 {
		t.Fatalf("expected 5 days, got %d", len(perDay))
	}
	for d, n := range perDay {
		if n < 140 || n > 180 {
			t.Fatalf("day %d has %d tweets, want ~160", d, n)
		}
	}
}

func TestGenerateAggressionDeterministic(t *testing.T) {
	cfg := AggressionConfig{Seed: 3, Days: 2, NormalCount: 50, AbusiveCount: 20, HatefulCount: 5}
	a := GenerateAggression(cfg)
	b := GenerateAggression(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different tweets at %d", i)
		}
	}
	cfg.Seed = 4
	c := GenerateAggression(cfg)
	same := 0
	for i := range a {
		if a[i].Text == c[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical datasets")
	}
}

func TestGeneratedTweetsAreValidJSONPayloads(t *testing.T) {
	cfg := AggressionConfig{Seed: 5, Days: 2, NormalCount: 30, AbusiveCount: 20, HatefulCount: 10}
	for _, tw := range GenerateAggression(cfg) {
		data, err := tw.Marshal()
		if err != nil {
			t.Fatalf("marshal failed: %v", err)
		}
		back, err := Unmarshal(data)
		if err != nil || back.Text != tw.Text {
			t.Fatalf("round trip failed: %v", err)
		}
		if tw.AccountAgeDays() <= 0 {
			t.Fatalf("non-positive account age for %q", tw.IDStr)
		}
		if tw.PostedAt().IsZero() {
			t.Fatalf("unparseable timestamp %q", tw.CreatedAt)
		}
	}
}

func TestAbusiveTweetsCarrySwears(t *testing.T) {
	g := NewGenerator(6, 10)
	swearTweets := 0
	n := 500
	for i := 0; i < n; i++ {
		tw := g.Tweet(1, 0)
		if strings.Contains(tw.Text, "fuck") || strings.Contains(tw.Text, "shit") ||
			strings.Contains(tw.Text, "bitch") || strings.Contains(tw.Text, "ass") {
			swearTweets++
		}
	}
	// With Poisson(2.54) swears per abusive tweet, most contain at least
	// one of the high-frequency stems.
	if swearTweets < n/4 {
		t.Fatalf("only %d/%d abusive tweets contain common swears", swearTweets, n)
	}
}

func TestUnlabeledSourceMixtureAndProgress(t *testing.T) {
	src := NewUnlabeledSource(7, 10)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		tw := src.Next()
		if tw.IsLabeled() {
			t.Fatalf("unlabeled source produced labeled tweet")
		}
		seen[tw.Day] = true
	}
	if len(seen) < 5 {
		t.Fatalf("source cycles too few days: %d", len(seen))
	}
}

func TestGenerateSarcasmCounts(t *testing.T) {
	cfg := SarcasmConfig{Seed: 8, SarcasticCount: 100, NormalCount: 400, Days: 4}
	data := GenerateSarcasm(cfg)
	if len(data) != 500 {
		t.Fatalf("total = %d", len(data))
	}
	sarcastic := 0
	for i := range data {
		if data[i].Label == LabelSarcastic {
			sarcastic++
		}
	}
	if sarcastic != 100 {
		t.Fatalf("sarcastic = %d, want 100", sarcastic)
	}
}

func TestSarcasticTweetsLookSarcastic(t *testing.T) {
	g := NewGenerator(9, 4)
	emphatic := 0
	for i := 0; i < 200; i++ {
		tw := g.sarcasticTweet(0)
		if strings.Contains(tw.Text, "!!") || strings.Contains(tw.Text, "soooo") {
			emphatic++
		}
	}
	if emphatic < 150 {
		t.Fatalf("only %d/200 sarcastic tweets look emphatic", emphatic)
	}
}

func TestGenerateOffensiveCounts(t *testing.T) {
	cfg := OffensiveConfig{Seed: 10, RacistCount: 50, SexistCount: 75, NoneCount: 275, Days: 4}
	data := GenerateOffensive(cfg)
	counts := map[string]int{}
	for i := range data {
		counts[data[i].Label]++
	}
	if counts[LabelRacism] != 50 || counts[LabelSexism] != 75 || counts[LabelNone] != 275 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSlangForDayDeterministicAndDistinct(t *testing.T) {
	a := slangForDay(3)
	b := slangForDay(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slang not deterministic")
		}
	}
	if len(a) != SlangWordsPerDay {
		t.Fatalf("slang size = %d", len(a))
	}
	c := slangForDay(4)
	shared := 0
	inA := map[string]bool{}
	for _, w := range a {
		inA[w] = true
	}
	for _, w := range c {
		if inA[w] {
			shared++
		}
	}
	if shared > SlangWordsPerDay/2 {
		t.Fatalf("days %d and %d share %d slang words", 3, 4, shared)
	}
}

func TestClampF(t *testing.T) {
	if clampF(5, 0, 10) != 5 || clampF(-1, 0, 10) != 0 || clampF(11, 0, 10) != 10 {
		t.Fatalf("clampF wrong")
	}
}

func TestLogNormalCountCapped(t *testing.T) {
	g := NewGenerator(12, 1)
	for i := 0; i < 1000; i++ {
		v := g.logNormalCount(10, 3)
		if v < 0 || float64(v) > 5e6 {
			t.Fatalf("logNormalCount out of range: %d", v)
		}
	}
}

func TestComposeTextSentenceStructure(t *testing.T) {
	g := NewGenerator(13, 10)
	for i := 0; i < 100; i++ {
		txt := g.composeText(normalProfile, 0)
		if len(txt) == 0 {
			t.Fatalf("empty text generated")
		}
		if !strings.ContainsAny(txt, ".!") {
			t.Fatalf("no sentence terminator in %q", txt)
		}
	}
}

func TestAccountAgeCalibration(t *testing.T) {
	g := NewGenerator(14, 10)
	for class, wantMean := range map[int]float64{0: 1487.74, 1: 1291.97, 2: 1379.95} {
		var sum float64
		n := 3000
		for i := 0; i < n; i++ {
			tw := g.Tweet(class, 0)
			sum += tw.AccountAgeDays()
		}
		mean := sum / float64(n)
		if math.Abs(mean-wantMean) > wantMean*0.12 {
			t.Errorf("class %d account age mean = %v, want ~%v", class, mean, wantMean)
		}
	}
}
