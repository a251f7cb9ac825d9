package feature

import (
	"testing"
	"time"

	"redhanded/internal/text/lexicon"
	"redhanded/internal/twitterdata"
)

func tweetWith(textBody string) *twitterdata.Tweet {
	posted := time.Date(2017, 6, 10, 12, 0, 0, 0, time.UTC)
	return &twitterdata.Tweet{
		IDStr:     "1",
		Text:      textBody,
		CreatedAt: posted.Format(twitterdata.TimeLayout),
		User: twitterdata.User{
			CreatedAt:      posted.AddDate(0, 0, -500).Format(twitterdata.TimeLayout),
			FollowersCount: 100,
			FriendsCount:   50,
			StatusesCount:  1000,
			ListedCount:    5,
		},
	}
}

func TestSchemaNames(t *testing.T) {
	if len(Names) != NumFeatures {
		t.Fatalf("Names length %d != NumFeatures %d", len(Names), NumFeatures)
	}
	if Name(CntSwearWords) != "cntSwearWords" {
		t.Fatalf("Name(CntSwearWords) = %q", Name(CntSwearWords))
	}
	if Name(-1) != "?" || Name(NumFeatures) != "?" {
		t.Fatalf("out-of-range names wrong")
	}
	if Index("accountAge") != AccountAge || Index("nope") != -1 {
		t.Fatalf("Index lookups wrong")
	}
	// All names distinct.
	seen := map[string]bool{}
	for _, n := range Names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestExtractProfileAndNetwork(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith("hello"))
	if x[AccountAge] < 499 || x[AccountAge] > 501 {
		t.Errorf("accountAge = %v, want ~500", x[AccountAge])
	}
	if x[CntPosts] != 1000 || x[CntLists] != 5 || x[CntFollowers] != 100 || x[CntFriends] != 50 {
		t.Errorf("profile/network features wrong: %v", x)
	}
}

func TestExtractBasicTextFeatures(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith("WOW THIS is #great #stuff see http://x.co now"))
	if x[NumHashtags] != 2 {
		t.Errorf("hashtags = %v, want 2", x[NumHashtags])
	}
	if x[NumURLs] != 1 {
		t.Errorf("urls = %v, want 1", x[NumURLs])
	}
	if x[NumUpperCases] != 2 { // WOW, THIS
		t.Errorf("upper = %v, want 2", x[NumUpperCases])
	}
}

func TestExtractSwearsAndSentiment(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith("you are a fucking bitch and I hate you"))
	if x[CntSwearWords] < 2 {
		t.Errorf("swears = %v, want >= 2", x[CntSwearWords])
	}
	if x[SentimentScoreNeg] > -3 {
		t.Errorf("negative sentiment = %v, want <= -3", x[SentimentScoreNeg])
	}
	if x[BoWScore] < 2 {
		t.Errorf("bow score = %v, want >= 2 (seed words)", x[BoWScore])
	}
	pos := e.Extract(tweetWith("what a wonderful lovely day"))
	if pos[SentimentScorePos] < 3 {
		t.Errorf("positive sentiment = %v, want >= 3", pos[SentimentScorePos])
	}
}

func TestExtractStylistic(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith("one two three. four five six."))
	if x[WordsPerSentence] != 3 {
		t.Errorf("wordsPerSentence = %v, want 3", x[WordsPerSentence])
	}
	if x[MeanWordLength] <= 0 {
		t.Errorf("meanWordLength = %v, want > 0", x[MeanWordLength])
	}
}

func TestExtractSyntactic(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith("the ugly dog runs quickly"))
	if x[CntAdjectives] < 1 || x[CntAdverbs] < 1 || x[CntVerbs] < 1 {
		t.Errorf("POS counts wrong: adj=%v adv=%v verb=%v",
			x[CntAdjectives], x[CntAdverbs], x[CntVerbs])
	}
}

func TestPreprocessingChangesTokenFeatures(t *testing.T) {
	on := NewExtractor(Config{Preprocess: true, BoW: DefaultBoWConfig()})
	off := NewExtractor(Config{Preprocess: false, BoW: DefaultBoWConfig()})
	tw := tweetWith("RT @user fuck http://spam.example 12345 #tag")
	xOn := on.Extract(tw)
	xOff := off.Extract(tw)
	// Raw-text counters are identical either way.
	if xOn[NumHashtags] != xOff[NumHashtags] || xOn[NumURLs] != xOff[NumURLs] {
		t.Errorf("raw counters should not depend on preprocessing")
	}
	// Token-derived features differ: the URL/number junk pollutes tokens.
	if xOn[MeanWordLength] == xOff[MeanWordLength] {
		t.Errorf("preprocessing should change meanWordLength (on=%v off=%v)",
			xOn[MeanWordLength], xOff[MeanWordLength])
	}
}

func TestExtractEmptyTweet(t *testing.T) {
	e := NewExtractor(DefaultConfig())
	x := e.Extract(tweetWith(""))
	if len(x) != NumFeatures {
		t.Fatalf("vector length %d != %d", len(x), NumFeatures)
	}
	for i, v := range x[NumHashtags:] {
		if v != 0 && i+NumHashtags != SentimentScorePos && i+NumHashtags != SentimentScoreNeg {
			t.Errorf("empty text feature %s = %v, want 0", Name(i+NumHashtags), v)
		}
	}
	// Sentiment of empty text is the neutral {1,-1}.
	if x[SentimentScorePos] != 1 || x[SentimentScoreNeg] != -1 {
		t.Errorf("empty text sentiment = (%v,%v), want (1,-1)",
			x[SentimentScorePos], x[SentimentScoreNeg])
	}
}

func TestBoWSeedSize(t *testing.T) {
	b := NewAdaptiveBoW(DefaultBoWConfig())
	if b.Size() != lexicon.SeedSwearCount {
		t.Fatalf("initial BoW size = %d, want %d", b.Size(), lexicon.SeedSwearCount)
	}
}

func TestBoWLearnsAggressiveVocabulary(t *testing.T) {
	cfg := DefaultBoWConfig()
	cfg.UpdateEvery = 100
	b := NewAdaptiveBoW(cfg)
	// "zorp" appears in most aggressive tweets, never in normal ones.
	for i := 0; i < 300; i++ {
		b.Learn([]string{"you", "zorp", "idiot"}, true)
		b.Learn([]string{"have", "a", "day"}, false)
	}
	if !b.Contains("zorp") {
		t.Fatalf("frequent aggressive word not added (size=%d, adds=%d)", b.Size(), b.Additions())
	}
	if b.Contains("day") {
		t.Fatalf("normal vocabulary should not enter the BoW")
	}
}

func TestBoWEvictsWordsGoneNormal(t *testing.T) {
	cfg := DefaultBoWConfig()
	cfg.UpdateEvery = 100
	cfg.Decay = 0.9
	b := NewAdaptiveBoW(cfg)
	for i := 0; i < 300; i++ {
		b.Learn([]string{"zorp", "loser"}, true)
		b.Learn([]string{"nice", "day"}, false)
	}
	if !b.Contains("zorp") {
		t.Skip("precondition failed: word never learned")
	}
	// The word flips: now popular in normal tweets, absent from aggressive.
	for i := 0; i < 1000; i++ {
		b.Learn([]string{"zorp", "nice"}, false)
		if i%5 == 0 {
			b.Learn([]string{"loser"}, true)
		}
	}
	if b.Contains("zorp") {
		t.Fatalf("flipped word not evicted (removals=%d)", b.Removals())
	}
}

func TestBoWSeedsArePermanent(t *testing.T) {
	cfg := DefaultBoWConfig()
	cfg.UpdateEvery = 50
	b := NewAdaptiveBoW(cfg)
	// Seed word appears heavily in normal tweets.
	for i := 0; i < 500; i++ {
		b.Learn([]string{"fuck", "yeah"}, false)
		b.Learn([]string{"idiot"}, true)
	}
	if !b.Contains("fuck") {
		t.Fatalf("seed word was evicted")
	}
	if b.Size() < lexicon.SeedSwearCount {
		t.Fatalf("BoW shrank below seed size: %d", b.Size())
	}
}

func TestBoWFrozen(t *testing.T) {
	cfg := DefaultBoWConfig()
	cfg.Frozen = true
	cfg.UpdateEvery = 10
	b := NewAdaptiveBoW(cfg)
	for i := 0; i < 200; i++ {
		b.Learn([]string{"zorp"}, true)
		b.Learn([]string{"day"}, false)
	}
	if b.Size() != lexicon.SeedSwearCount {
		t.Fatalf("frozen BoW changed size: %d", b.Size())
	}
}

func TestBoWScore(t *testing.T) {
	b := NewAdaptiveBoW(DefaultBoWConfig())
	if s := b.Score([]string{"FUCK", "this", "shit"}); s != 2 {
		t.Fatalf("score = %v, want 2 (case-insensitive seeds)", s)
	}
	if s := b.Score(nil); s != 0 {
		t.Fatalf("empty score = %v", s)
	}
}

func TestBoWSerializationRoundTrip(t *testing.T) {
	cfg := DefaultBoWConfig()
	cfg.UpdateEvery = 100
	a := NewAdaptiveBoW(cfg)
	for i := 0; i < 400; i++ {
		a.Learn([]string{"zorp", "idiot", "you"}, true)
		a.Learn([]string{"nice", "day", "today"}, false)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := NewAdaptiveBoW(DefaultBoWConfig())
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() || a.Additions() != b.Additions() {
		t.Fatalf("state mismatch: size %d/%d adds %d/%d", a.Size(), b.Size(), a.Additions(), b.Additions())
	}
	// Both must evolve identically from here.
	for i := 0; i < 400; i++ {
		a.Learn([]string{"blick", "loser"}, true)
		b.Learn([]string{"blick", "loser"}, true)
		a.Learn([]string{"coffee"}, false)
		b.Learn([]string{"coffee"}, false)
	}
	if a.Size() != b.Size() || a.Contains("blick") != b.Contains("blick") {
		t.Fatalf("BoW diverged after restore")
	}
	if err := b.UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatalf("garbage BoW state accepted")
	}
}

func TestExtractorLearnUpdatesBoW(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BoW.UpdateEvery = 50
	e := NewExtractor(cfg)
	tw := tweetWith("you are a total zork")
	tw.Label = twitterdata.LabelAbusive
	normal := tweetWith("lovely weather in town today")
	normal.Label = twitterdata.LabelNormal
	for i := 0; i < 200; i++ {
		e.Learn(tw)
		e.Learn(normal)
	}
	if !e.BoW().Contains("zork") {
		t.Fatalf("extractor.Learn did not feed the BoW")
	}
	// Unlabeled tweets must not affect the BoW.
	sizeBefore := e.BoW().Size()
	un := tweetWith("unlabeled zork zork")
	for i := 0; i < 200; i++ {
		e.Learn(un)
	}
	if e.BoW().Size() != sizeBefore {
		t.Fatalf("unlabeled tweets changed the BoW")
	}
}

// TestBoWAppendWords covers the executor side of the cluster vocabulary
// diff protocol: appends extend membership without touching existing
// words, empty diffs are no-ops, and the lock-free snapshot follows.
func TestBoWAppendWords(t *testing.T) {
	b := NewAdaptiveBoW(BoWConfig{Frozen: true})
	b.SetWords([]string{"alpha", "beta"})
	b.AppendWords(nil) // empty diff: free
	if b.Size() != 2 {
		t.Fatalf("size after empty append = %d, want 2", b.Size())
	}
	b.AppendWords([]string{"gamma", "delta"})
	if b.Size() != 4 {
		t.Fatalf("size after append = %d, want 4", b.Size())
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if !b.Contains(w) {
			t.Errorf("BoW lost %q", w)
		}
		// The fast-path snapshot must see appended words too.
		if b.lookupSnapshot().lookup([]byte(w))&infoBoW == 0 {
			t.Errorf("snapshot missing %q after append", w)
		}
	}
}
