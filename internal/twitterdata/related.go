package twitterdata

// Labels for the two related-behavior datasets of §V-F.
const (
	// Sarcasm dataset (Rajadesingan et al. 2015): 6.5k sarcastic of 61k.
	LabelSarcastic = "sarcastic"
	// Offensive dataset (Waseem & Hovy 2016): 2k racist + 3k sexist of 16k.
	LabelRacism = "racism"
	LabelSexism = "sexism"
	LabelNone   = "none"
)

// SarcasmConfig sizes the synthetic sarcasm dataset.
type SarcasmConfig struct {
	Seed           uint64
	SarcasticCount int // paper: ~6.5k
	NormalCount    int // paper: ~54.5k (61k total)
	Days           int
}

// DefaultSarcasmConfig mirrors the dataset of [44].
func DefaultSarcasmConfig() SarcasmConfig {
	return SarcasmConfig{Seed: 7, SarcasticCount: 6500, NormalCount: 54500, Days: 8}
}

// Sarcasm hardness knobs: a share of sarcastic tweets is deadpan —
// generated by the *normal* tweet composer, so the overlap is exact — and
// a share of sincere tweets is enthusiastically emphatic — generated by
// the *sarcastic* composer. With priors of 10.6% sarcasm, the resulting
// Bayes-optimal accuracy is ≈ 1 − 0.106·0.30 − 0.894·0.045 ≈ 0.93, the
// score the original paper reports.
const (
	deadpanSarcasmProb   = 0.30
	enthusiasticNormProb = 0.045
)

// GenerateSarcasm produces the sarcasm dataset. Sarcastic tweets carry the
// behavioural signature that detector exploits: an effusive positive
// surface ("sooo great") colliding with a negative situation, emphatic
// punctuation, elongation and shouting; sincere tweets are ordinary
// positive or neutral content. Deliberate class overlap (deadpan sarcasm,
// enthusiastic sincerity) keeps the task as hard as the original.
func GenerateSarcasm(cfg SarcasmConfig) []Tweet {
	g := NewGenerator(cfg.Seed, cfg.Days)
	total := cfg.SarcasticCount + cfg.NormalCount
	classes := make([]int, 0, total)
	for i := 0; i < cfg.SarcasticCount; i++ {
		classes = append(classes, 1)
	}
	for i := 0; i < cfg.NormalCount; i++ {
		classes = append(classes, 0)
	}
	g.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	out := make([]Tweet, 0, total)
	for i, c := range classes {
		day := i * cfg.Days / total
		var tw Tweet
		if c == 1 {
			if g.rng.Float64() < deadpanSarcasmProb {
				tw = g.Tweet(0, day) // deadpan: exact normal-tweet overlap
			} else {
				tw = g.sarcasticTweet(day)
			}
			tw.Label = LabelSarcastic
		} else {
			if g.rng.Float64() < enthusiasticNormProb {
				tw = g.sarcasticTweet(day) // sincere but surface-sarcastic
			} else {
				tw = g.Tweet(0, day)
			}
			tw.Label = LabelNormal
		}
		out = append(out, tw)
	}
	return out
}

// sarcasticTweet composes the positive-words-negative-situation pattern.
func (g *Generator) sarcasticTweet(day int) Tweet {
	tw := g.Tweet(0, day)
	// Effusive opener with elongation ("soooo great").
	opener := positiveWords[g.rng.Intn(len(positiveWords))]
	b := g.text[:0]
	if g.rng.Float64() < 0.6 {
		b = append(b, "soooo "...)
	} else {
		b = append(b, "just "...)
	}
	b = append(b, opener...)
	// Negative situation body.
	b = append(append(b, " that "...), stopWords[g.rng.Intn(len(stopWords))]...)
	b = append(append(b, ' '), neutralNouns[g.rng.Intn(len(neutralNouns))]...)
	b = append(append(b, ' '), mildNegatives[g.rng.Intn(len(mildNegatives))]...)
	if g.rng.Float64() < 0.5 {
		b = append(b, " AGAIN"...)
	}
	b = append(b, "!!"...)
	if g.rng.Float64() < 0.4 {
		b = append(append(b, " #"...), sarcasmTags[g.rng.Intn(len(sarcasmTags))]...)
	}
	g.text = b
	tw.Text = string(b)
	return tw
}

// sarcasmTags are the hashtags a sarcastic tweet may close with.
var sarcasmTags = []string{"not", "sarcasm", "lucky", "blessed"}

// OffensiveConfig sizes the synthetic racism/sexism dataset.
type OffensiveConfig struct {
	Seed        uint64
	RacistCount int // paper: ~2k
	SexistCount int // paper: ~3k
	NoneCount   int // paper: ~11k (16k total)
	Days        int
}

// DefaultOffensiveConfig mirrors the dataset of [8].
func DefaultOffensiveConfig() OffensiveConfig {
	return OffensiveConfig{Seed: 11, RacistCount: 2000, SexistCount: 3000, NoneCount: 11000, Days: 6}
}

// GenerateOffensive produces the racism/sexism dataset. The two offensive
// classes overlap substantially with each other and with clean tweets —
// the original task is much harder than aggression detection (the paper
// reports only 74% F1) — so the generator uses weaker separations and
// heavy label-adjacent vocabulary sharing.
func GenerateOffensive(cfg OffensiveConfig) []Tweet {
	g := NewGenerator(cfg.Seed, cfg.Days)
	total := cfg.RacistCount + cfg.SexistCount + cfg.NoneCount
	classes := make([]int, 0, total)
	for i := 0; i < cfg.RacistCount; i++ {
		classes = append(classes, 1)
	}
	for i := 0; i < cfg.SexistCount; i++ {
		classes = append(classes, 2)
	}
	for i := 0; i < cfg.NoneCount; i++ {
		classes = append(classes, 0)
	}
	g.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	out := make([]Tweet, 0, total)
	for i, c := range classes {
		day := i * cfg.Days / total
		tw := g.offensiveTweet(c, day)
		tw.Label = offensiveLabels[c]
		out = append(out, tw)
	}
	return out
}

// offensiveLabels names the offensive dataset's classes by index.
var offensiveLabels = []string{LabelNone, LabelRacism, LabelSexism}

// offensiveTweet generates the three offensive-dataset classes with
// deliberately muddier separation: ~45% of offensive tweets read almost
// like clean ones, and clean tweets sometimes carry offensive markers.
func (g *Generator) offensiveTweet(class, day int) Tweet {
	base := g.Tweet(0, day)
	if class == 0 {
		// ~8% of clean tweets still contain a swear or a group mention.
		if g.rng.Float64() < 0.08 {
			base.Text += " " + g.swearPool[g.rng.Intn(len(g.swearPool))]
		}
		return base
	}
	b := append(g.text[:0], base.Text...)
	muddy := g.rng.Float64() < 0.45
	if !muddy {
		b = append(append(b, ' '), targetGroups[g.rng.Intn(len(targetGroups))]...)
		b = append(append(b, ' '), insultNouns[g.rng.Intn(len(insultNouns))]...)
	}
	if g.rng.Float64() < 0.5 {
		b = append(append(b, ' '), negativeAdjectives[g.rng.Intn(len(negativeAdjectives))]...)
	}
	if class == 2 && g.rng.Float64() < 0.4 {
		b = append(append(b, ' '), g.swearPool[g.rng.Intn(len(g.swearPool))]...)
	}
	g.text = b
	base.Text = string(b)
	return base
}
