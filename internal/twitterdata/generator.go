package twitterdata

import (
	"math"
	"slices"
	"time"

	"redhanded/internal/ml"
	"redhanded/internal/text/lexicon"
)

// classProfile holds the class-conditional generation parameters. The
// headline values (account age, uppercase words, words per sentence, swear
// words, sentiment, adjectives) are calibrated to the statistics the paper
// reports in §IV-B and Figure 4.
type classProfile struct {
	label string

	accountAgeMean, accountAgeStd  float64 // days
	postsLogMean, postsLogStd      float64
	listsMean                      float64
	followersLogMean, followersStd float64
	friendsLogMean, friendsStd     float64
	// Uppercase words follow a zero-inflated 1+Poisson(lambda): most
	// tweets shout nothing, shouting tweets shout several words — matching
	// both the means and the heavy tails of Fig. 4b.
	upperZeroProb, upperLambda float64
	wpsMean, wpsStd            float64
	// Aggressive tweets are a mixture: an explicit share carrying swears
	// and strong insults, and a "mild" share with no swears and muted
	// insults (implicit abuse) — matching the zero-swear mass visible in
	// the paper's Fig. 4f while keeping the class mean on target.
	mildProb                        float64
	swearMean                       float64 // class mean; explicit share draws mean/(1-mildProb)
	adjMean, adjStd                 float64
	advMean                         float64
	strongNegMean                   float64
	negAdjProb                      float64
	mildNegProb                     float64
	posMean                         float64
	hashtagMean, urlMean, mentionMn float64
	exclaimProb                     float64
	slangProb                       float64
	rtProb                          float64
	groupProb                       float64
}

// Calibration targets from the paper:
//
//	account age:      1487.74 / 1291.97 / 1379.95 days
//	uppercase words:  0.96 (2.10) / 1.84 (3.27) / 1.57 (2.95)
//	words/sentence:   16.66 / 12.66 / 15.93
//	swear words:      0.10 / 2.54 / 1.84
//	adjectives:       normal > hateful > abusive
//	negative sentiment: abusive & hateful far more negative than normal
var (
	normalProfile = classProfile{
		label:          LabelNormal,
		accountAgeMean: 1487.74, accountAgeStd: 740,
		postsLogMean: 9.3, postsLogStd: 1.1,
		listsMean:        12,
		followersLogMean: 6.6, followersStd: 1.2,
		friendsLogMean: 6.2, friendsStd: 1.1,
		upperZeroProb: 0.60, upperLambda: 1.40, // mean 0.96
		wpsMean: 16.66, wpsStd: 5.5,
		swearMean: 0.10,
		adjMean:   1.7, adjStd: 1.1,
		advMean:       1.0,
		strongNegMean: 0.04,
		negAdjProb:    0.06,
		mildNegProb:   0.25,
		posMean:       0.55,
		hashtagMean:   0.40, urlMean: 0.28, mentionMn: 0.5,
		exclaimProb: 0.12,
		slangProb:   0.08,
		rtProb:      0.15,
	}
	abusiveProfile = classProfile{
		label:          LabelAbusive,
		accountAgeMean: 1291.97, accountAgeStd: 700,
		postsLogMean: 8.95, postsLogStd: 1.1,
		listsMean:        6,
		followersLogMean: 6.1, followersStd: 1.2,
		friendsLogMean: 6.0, friendsStd: 1.1,
		upperZeroProb: 0.45, upperLambda: 2.35, // mean 1.84
		wpsMean: 12.66, wpsStd: 4.5,
		mildProb:  0.35,
		swearMean: 2.54,
		adjMean:   0.8, adjStd: 0.8,
		advMean:       0.6,
		strongNegMean: 1.3,
		negAdjProb:    0.25,
		mildNegProb:   0.10,
		posMean:       0.12,
		hashtagMean:   0.35, urlMean: 0.15, mentionMn: 0.8,
		exclaimProb: 0.45,
		slangProb:   0.50,
		rtProb:      0.10,
	}
	hatefulProfile = classProfile{
		label:          LabelHateful,
		accountAgeMean: 1379.95, accountAgeStd: 720,
		postsLogMean: 9.1, postsLogStd: 1.1,
		listsMean:        8,
		followersLogMean: 6.3, followersStd: 1.2,
		friendsLogMean: 6.1, friendsStd: 1.1,
		upperZeroProb: 0.50, upperLambda: 2.14, // mean 1.57
		wpsMean: 15.93, wpsStd: 5.5,
		mildProb:  0.40,
		swearMean: 1.84,
		adjMean:   1.05, adjStd: 0.95,
		advMean:       0.75,
		strongNegMean: 1.0,
		negAdjProb:    0.45,
		mildNegProb:   0.10,
		posMean:       0.15,
		hashtagMean:   0.50, urlMean: 0.18, mentionMn: 0.7,
		exclaimProb: 0.40,
		slangProb:   0.55,
		rtProb:      0.10,
		groupProb:   0.60,
	}
	profiles = []classProfile{normalProfile, abusiveProfile, hatefulProfile}

	// classLabels maps a class index to its dataset label independently of
	// which profile currently generates the class's surface features — the
	// concept-shift mode swaps profiles between classes while the labels
	// stay with the classes.
	classLabels = []string{LabelNormal, LabelAbusive, LabelHateful}
)

// shiftedProfiles is the post-shift regime: an abrupt concept drift in
// which the class-conditional distributions are exchanged. Aggressors
// adopt the surface statistics of normal accounts (evasion), previously
// benign traffic turns loud and swear-heavy, and hateful content goes
// implicit — almost no classic swears, heavy fresh slang, muted shouting —
// while still targeting groups. A model trained on the original regime is
// systematically wrong afterwards; the new regime remains separable, so an
// adaptive model can relearn it.
var shiftedProfiles = func() []classProfile {
	shiftHateful := hatefulProfile
	shiftHateful.swearMean = 0.1
	shiftHateful.mildProb = 0
	shiftHateful.slangProb = 0.9
	shiftHateful.upperZeroProb = 0.85
	shiftHateful.upperLambda = 0.8
	shiftHateful.strongNegMean = 0.3
	shiftHateful.negAdjProb = 0.1
	shiftHateful.wpsMean = 16.5
	shiftHateful.exclaimProb = 0.1
	return []classProfile{abusiveProfile, normalProfile, shiftHateful}
}()

// AggressionConfig configures the synthetic 86k aggression dataset.
type AggressionConfig struct {
	Seed         uint64
	Days         int // collection days (paper: 10)
	NormalCount  int // paper: 53,835
	AbusiveCount int // paper: 27,179
	HatefulCount int // paper: 4,970
	// ShiftAt injects an abrupt concept drift: tweets generated from this
	// offset onward (0 disables) draw from swapped class-conditional
	// profiles (see shiftedProfiles), stressing the drift-detection path
	// the way §I's adapting aggressors would.
	ShiftAt int
	// DuplicateRatio in [0,1) makes the stream retweet-heavy: with this
	// probability (scaled per class — aggressive texts go viral harder than
	// normal chatter, per Terizi et al.'s retweet analysis) a generated
	// tweet reuses a recently emitted text of its class verbatim, from a
	// fresh author. Recency is power-law: most repeats hit the newest texts.
	// 0 (the default) disables duplication and leaves every historical seed
	// stream byte-identical.
	DuplicateRatio float64
}

// DefaultAggressionConfig mirrors the dataset the paper evaluates on.
func DefaultAggressionConfig() AggressionConfig {
	return AggressionConfig{
		Seed:         42,
		Days:         10,
		NormalCount:  53835,
		AbusiveCount: 27179,
		HatefulCount: 4970,
	}
}

// Generator produces synthetic tweets with the calibrated class
// distributions. It is NOT safe for concurrent use; create one per
// goroutine (Split the seed).
type Generator struct {
	rng       *ml.RNG
	base      time.Time
	counter   int64
	swearPool []string
	slangDays [][]string
	profiles  []classProfile

	// Retweet/duplication mode (SetDuplicateRatio): per-class rings of the
	// most recent freshly composed texts, repeated verbatim with a
	// power-law recency bias so a handful of "viral" texts dominate.
	dupRatio float64
	recent   [3][]string
	recentAt [3]int

	// Scratch reused by every tweet: composeText picks words into words,
	// marks the shouted ones in shout through the permutation drawn into
	// perm, and appends the text into text; Tweet appends its five
	// fixed-width fields into fields. Each tweet then costs one string
	// for its text and one for its fields.
	words  []string
	shout  []bool
	perm   []int
	text   []byte
	fields []byte
}

// dupClassWeight scales DuplicateRatio per class: aggressive content is
// retweeted more aggressively than normal chatter (Terizi et al. observe
// abuse spreading through retweet cascades), so at a given ratio the
// duplicate mass skews toward the texts the extraction cache benefits from
// memoizing most.
var dupClassWeight = [3]float64{0.7, 1.5, 1.5}

// dupWindow bounds each class's recent-text ring; repeats draw from this
// window, newest-first.
const dupWindow = 256

// NewGenerator creates a generator with the given seed and day horizon.
func NewGenerator(seed uint64, days int) *Generator {
	if days < 1 {
		days = 1
	}
	g := &Generator{
		rng:      ml.NewRNG(seed),
		base:     time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		profiles: profiles,
	}
	// Sample only alphabetic seed swears: obfuscated variants ("sh1t")
	// would be mangled by the preprocessing step and stop matching the
	// lexicon, silently deflating the swear-count calibration.
	for _, w := range lexicon.SwearWords() {
		if isAlpha(w) {
			g.swearPool = append(g.swearPool, w)
		}
	}
	for d := 0; d < days; d++ {
		g.slangDays = append(g.slangDays, slangForDay(d))
	}
	return g
}

// Shift switches the generator to the post-drift regime (swapped
// class-conditional profiles). Tweets generated afterwards follow the new
// concept; labels keep naming the same classes.
func (g *Generator) Shift() { g.profiles = shiftedProfiles }

// SetDuplicateRatio turns on retweet-heavy generation: each subsequent
// tweet reuses a recent same-class text verbatim with probability
// ratio×dupClassWeight[class] (clamped to what the recent window can
// serve). Zero restores the pure-fresh stream.
func (g *Generator) SetDuplicateRatio(ratio float64) {
	if ratio < 0 {
		ratio = 0
	}
	g.dupRatio = ratio
}

// pickRecent returns a recently composed text of the class with power-law
// recency bias: u³ concentrates picks on the newest entries, so a few
// currently-viral texts account for most repeats.
func (g *Generator) pickRecent(class int) string {
	ring := g.recent[class]
	n := len(ring)
	u := g.rng.Float64()
	back := int(float64(n) * u * u * u)
	if back >= n {
		back = n - 1
	}
	// recentAt points at the next write slot; newest entry is one behind.
	idx := g.recentAt[class] - 1 - back
	idx %= n
	if idx < 0 {
		idx += n
	}
	return ring[idx]
}

// remember records a freshly composed text in the class's recent ring.
func (g *Generator) remember(class int, text string) {
	if len(g.recent[class]) < dupWindow {
		g.recent[class] = append(g.recent[class], text)
		g.recentAt[class] = len(g.recent[class]) % dupWindow
		return
	}
	g.recent[class][g.recentAt[class]] = text
	g.recentAt[class] = (g.recentAt[class] + 1) % dupWindow
}

// GenerateAggression produces the labeled dataset: tweets grouped by day
// (day 0 first), classes interleaved uniformly within each day, matching
// the paper's "10 consecutive days of ~8-9k tweets each". With ShiftAt
// set, the generator swaps to the shifted profiles once that many tweets
// have been emitted.
func GenerateAggression(cfg AggressionConfig) []Tweet {
	g := NewGenerator(cfg.Seed, cfg.Days)
	g.SetDuplicateRatio(cfg.DuplicateRatio)
	counts := []int{cfg.NormalCount, cfg.AbusiveCount, cfg.HatefulCount}
	total := counts[0] + counts[1] + counts[2]
	out := make([]Tweet, 0, total)

	// Assign per-day quotas, distributing remainders to early days.
	for day := 0; day < cfg.Days; day++ {
		var dayClasses []int
		for c, n := range counts {
			share := n / cfg.Days
			if day < n%cfg.Days {
				share++
			}
			for i := 0; i < share; i++ {
				dayClasses = append(dayClasses, c)
			}
		}
		g.rng.Shuffle(len(dayClasses), func(i, j int) {
			dayClasses[i], dayClasses[j] = dayClasses[j], dayClasses[i]
		})
		for _, c := range dayClasses {
			if cfg.ShiftAt > 0 && len(out) == cfg.ShiftAt {
				g.Shift()
			}
			tw := g.Tweet(c, day)
			tw.Label = classLabels[c]
			out = append(out, tw)
		}
	}
	return out
}

// Tweet generates one synthetic tweet of the given class (0 normal,
// 1 abusive, 2 hateful) on the given day, without a label attached.
func (g *Generator) Tweet(class, day int) Tweet {
	p := g.profiles[class]
	g.counter++
	posted := g.base.Add(time.Duration(day)*24*time.Hour +
		time.Duration(g.rng.Intn(86400))*time.Second)
	ageDays := clampF(p.accountAgeMean+g.rng.NormFloat64()*p.accountAgeStd, 5, 4200)
	created := posted.Add(-time.Duration(ageDays*24) * time.Hour)

	var body string
	if g.dupRatio > 0 && len(g.recent[class]) > 0 &&
		g.rng.Float64() < g.dupRatio*dupClassWeight[class] {
		body = g.pickRecent(class)
	} else {
		body = g.composeText(p, day)
		if g.dupRatio > 0 {
			g.remember(class, body)
		}
	}

	// Draw in the order the fields are laid out: every seeded corpus
	// depends on it (TestGeneratorMatchesParent).
	uid := g.rng.Intn(2000000)
	screen := g.rng.Intn(100000)
	u := User{
		FollowersCount: g.logNormalCount(p.followersLogMean, p.followersStd),
		FriendsCount:   g.logNormalCount(p.friendsLogMean, p.friendsStd),
		StatusesCount:  g.logNormalCount(p.postsLogMean, p.postsLogStd),
		ListedCount:    g.rng.Poisson(p.listsMean),
	}

	// Spell t%09d, the posting time, u%07d, user%05d and the account's
	// creation time into one string and cut the five fields from it.
	b := appendDec(append(g.fields[:0], 't'), int(g.counter), 9)
	idEnd := len(b)
	b = appendTime(b, posted)
	postedEnd := len(b)
	b = appendDec(append(b, 'u'), uid, 7)
	uidEnd := len(b)
	b = appendDec(append(b, "user"...), screen, 5)
	screenEnd := len(b)
	b = appendTime(b, created)
	g.fields = b
	f := string(b)
	u.IDStr, u.ScreenName, u.CreatedAt = f[postedEnd:uidEnd], f[uidEnd:screenEnd], f[screenEnd:]
	return Tweet{IDStr: f[:idEnd], Text: body, CreatedAt: f[idEnd:postedEnd], User: u, Day: day}
}

func (g *Generator) logNormalCount(logMean, logStd float64) int {
	v := math.Exp(logMean + g.rng.NormFloat64()*logStd)
	if v > 5e6 {
		v = 5e6
	}
	return int(v)
}

// driftFactors model the paper's §I observation that aggressors adapt:
// over the collection days, aggressive vocabulary shifts away from the
// classic swear list towards fresh slang. The factors average ~1 across
// the horizon, preserving the Fig. 4 global statistics, while giving a
// day-0-trained batch model something to go stale on (Figs. 13/14) and
// the adaptive BoW something to chase (Figs. 9/10).
func (g *Generator) driftFactors(label string, day int) (swearF, slangF float64) {
	if label == LabelNormal || len(g.slangDays) <= 1 {
		return 1, 1
	}
	frac := float64(day) / float64(len(g.slangDays)-1)
	return 1.25 - 0.5*frac, 0.7 + 0.6*frac
}

// composeText builds the tweet body so that the extracted features land on
// the class-conditional targets.
func (g *Generator) composeText(p classProfile, day int) string {
	wps := clampF(p.wpsMean+g.rng.NormFloat64()*p.wpsStd, 4, 40)
	nSent := 1
	switch r := g.rng.Float64(); {
	case r < 0.10:
		nSent = 3
	case r < 0.40:
		nSent = 2
	}
	totalWords := int(math.Round(wps * float64(nSent)))
	if totalWords < 3 {
		totalWords = 3
	}

	g.words = g.words[:0]
	add := func(pool []string, n int) {
		for i := 0; i < n && len(g.words) < totalWords+6; i++ {
			g.words = append(g.words, pool[g.rng.Intn(len(pool))])
		}
	}

	swearF, slangF := g.driftFactors(p.label, day)
	mild := p.mildProb > 0 && g.rng.Float64() < p.mildProb
	if mild {
		// Implicit aggression: no swears, muted insults; slang and
		// shouting remain the only overt signals.
		p.swearMean = 0
		p.strongNegMean *= 0.25
		p.negAdjProb *= 0.3
	} else if p.mildProb > 0 {
		// Inflate the explicit share so the class mean stays calibrated.
		p.swearMean /= 1 - p.mildProb
	}
	add(g.swearPool, g.rng.Poisson(p.swearMean*swearF))
	if g.rng.Float64() < p.slangProb*slangF {
		slangDay := day
		// Some slang carries over from the previous day.
		if day > 0 && g.rng.Float64() < 0.3 {
			slangDay = day - 1
		}
		pool := g.slangDays[min(slangDay, len(g.slangDays)-1)]
		n := 1
		if g.rng.Float64() < 0.3 {
			n = 2
		}
		add(pool, n)
	}
	add(insultNouns, g.rng.Poisson(p.strongNegMean))
	if g.rng.Float64() < p.strongNegMean*0.4 {
		add(insultVerbs, 1)
	}
	if g.rng.Float64() < p.negAdjProb {
		add(negativeAdjectives, 1)
	}
	if g.rng.Float64() < p.mildNegProb {
		add(mildNegatives, 1)
	}
	add(positiveWords, g.rng.Poisson(p.posMean))
	add(neutralAdjectives, int(math.Round(math.Max(0, p.adjMean+g.rng.NormFloat64()*p.adjStd))))
	add(neutralAdverbs, g.rng.Poisson(p.advMean))
	if g.rng.Float64() < p.groupProb {
		add(targetGroups, 1)
	}

	// Fill the remainder: ~18% verbs, ~42% stop words, rest nouns.
	for len(g.words) < totalWords {
		switch r := g.rng.Float64(); {
		case r < 0.18:
			add(neutralVerbs, 1)
		case r < 0.60:
			add(stopWords, 1)
		default:
			add(neutralNouns, 1)
		}
	}
	words := g.words
	g.rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })

	// Uppercase k words ("shouting"): zero-inflated 1+Poisson, the first k
	// of a permutation of the word positions.
	upper := 0
	if g.rng.Float64() >= p.upperZeroProb {
		upper = 1 + g.rng.Poisson(p.upperLambda)
	}
	if upper > len(words) {
		upper = len(words)
	}
	g.perm = slices.Grow(g.perm[:0], len(words))[:len(words)]
	g.rng.PermInto(g.perm)
	g.shout = slices.Grow(g.shout[:0], len(words))[:len(words)]
	clear(g.shout)
	for _, idx := range g.perm[:upper] {
		g.shout[idx] = true
	}

	// Assemble sentences with terminators after room for an RT prefix.
	b := append(g.text[:0], rtPrefix...)
	perSent := (len(words) + nSent - 1) / nSent
	for s := 0; s < nSent; s++ {
		lo, hi := s*perSent, (s+1)*perSent
		if lo >= len(words) {
			break
		}
		if hi > len(words) {
			hi = len(words)
		}
		for i := lo; i < hi; i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendWord(b, words[i], g.shout[i])
		}
		if g.rng.Float64() < p.exclaimProb {
			b = append(b, '!')
			if g.rng.Float64() < 0.4 {
				b = append(b, "!!"...)
			}
		} else {
			b = append(b, '.')
		}
	}

	// Tweet-specific decorations: mentions, hashtags, URLs, RT prefix.
	for i := g.rng.Poisson(p.mentionMn); i > 0; i-- {
		b = appendDec(append(b, " @user"...), g.rng.Intn(10000), 4)
	}
	for i := g.rng.Poisson(p.hashtagMean); i > 0; i-- {
		b = append(append(b, " #"...), hashtagPool[g.rng.Intn(len(hashtagPool))]...)
	}
	for i := g.rng.Poisson(p.urlMean); i > 0; i-- {
		b = appendHex6(append(b, " http://t.co/"...), g.rng.Intn(1<<24))
	}
	g.text = b
	if g.rng.Float64() < p.rtProb {
		// Spell the drawn user over the room's "RT @user0000"; its ": "
		// stays. The number has four digits, so nothing past the room moves.
		appendDec(append(b[:0], "RT @user"...), g.rng.Intn(10000), 4)
		return string(b)
	}
	return string(b[len(rtPrefix):])
}

// rtPrefix is the room composeText leaves for a retweet prefix.
const rtPrefix = "RT @user0000: "

// appendWord appends w, in upper case when shout is set. Every pool word is
// lower-case ASCII (TestPoolsUpperCaseAsASCII), so this is strings.ToUpper.
func appendWord(b []byte, w string, shout bool) []byte {
	if !shout {
		return append(b, w...)
	}
	for i := 0; i < len(w); i++ {
		c := w[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// appendHex6 appends v < 1<<24 as six lower-case hex digits (%06x).
func appendHex6(b []byte, v int) []byte {
	const hex = "0123456789abcdef"
	for shift := 20; shift >= 0; shift -= 4 {
		b = append(b, hex[v>>shift&0xf])
	}
	return b
}

// UnlabeledSource streams endless unlabeled tweets with the dataset's
// overall class mixture, used by the scalability experiments (250k-2M
// tweets of Figures 15/16).
type UnlabeledSource struct {
	gen  *Generator
	mix  [3]float64 // cumulative class probabilities
	days int
	n    int64
}

// NewUnlabeledSource creates a source with the default 62.6/31.6/5.8%
// normal/abusive/hateful mixture.
func NewUnlabeledSource(seed uint64, days int) *UnlabeledSource {
	return &UnlabeledSource{
		gen:  NewGenerator(seed, days),
		mix:  [3]float64{0.626, 0.942, 1.0},
		days: days,
	}
}

// SetDuplicateRatio switches the source's generator into retweet-heavy
// mode (see Generator.SetDuplicateRatio).
func (s *UnlabeledSource) SetDuplicateRatio(ratio float64) {
	s.gen.SetDuplicateRatio(ratio)
}

// Next returns the next unlabeled tweet.
func (s *UnlabeledSource) Next() Tweet {
	r := s.gen.rng.Float64()
	class := 0
	for c, cum := range s.mix {
		if r <= cum {
			class = c
			break
		}
	}
	s.n++
	day := int(s.n) % s.days
	return s.gen.Tweet(class, day)
}

func isAlpha(s string) bool {
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
