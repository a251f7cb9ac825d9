// Package feature implements the feature-extraction step of the pipeline:
// the paper's 16 profile, text, and network features (Fig. 5) plus the
// adaptive bag-of-words feature of §IV-B that tracks vocabulary shifts in
// aggressive tweets over time.
package feature

// Feature indices in the extracted vector. The names match the labels the
// paper uses in Figures 4 and 5.
const (
	AccountAge        = iota // profile: account age in days
	CntPosts                 // profile: statuses posted
	CntLists                 // profile: list subscriptions
	CntFollowers             // network: in-degree popularity
	CntFriends               // network: out-degree popularity
	NumHashtags              // text/basic: '#' tokens in the raw text
	NumUpperCases            // text/basic: all-caps words
	NumURLs                  // text/basic: URL tokens
	CntAdjectives            // text/syntactic: POS adjective count
	CntAdverbs               // text/syntactic: POS adverb count
	CntVerbs                 // text/syntactic: POS verb count
	WordsPerSentence         // text/stylistic: mean words per sentence
	MeanWordLength           // text/stylistic: mean letters per word
	SentimentScorePos        // text/sentiment: positive strength [1..5]
	SentimentScoreNeg        // text/sentiment: negative strength [-5..-1]
	CntSwearWords            // text: swear-list hits
	BoWScore                 // adaptive bag-of-words hits

	// NumFeatures is the vector length.
	NumFeatures
)

// Vec is one raw feature vector by value, for callers that keep vectors
// in arrays rather than slices.
type Vec [NumFeatures]float64

// profileFeatureCount is the number of leading per-user slots (AccountAge
// through CntFriends). Everything at and above this index is a pure
// function of (text, BoW snapshot), which is what makes the extraction
// cache sound: only slots [profileFeatureCount:] are served from cache,
// the profile prefix is recomputed per tweet. The compile-time pin below
// breaks the build if a reordering ever moves a profile slot past it.
const profileFeatureCount = CntFriends + 1

var _ = [1]struct{}{}[profileFeatureCount-NumHashtags] // NumHashtags must be the first cached slot

// Names lists the feature names in index order.
var Names = [NumFeatures]string{
	"accountAge", "cntPosts", "cntLists", "cntFollowers", "cntFriends",
	"numHashtags", "numUpperCases", "numUrls", "cntAdjective", "cntAdverbs",
	"cntVerbs", "wordsPerSentence", "meanWordLength", "sentimentScorePos",
	"sentimentScoreNeg", "cntSwearWords", "bowScore",
}

// Name returns the name of feature i ("?" when out of range).
func Name(i int) string {
	if i < 0 || i >= NumFeatures {
		return "?"
	}
	return Names[i]
}

// Index returns the index of the named feature, or -1.
func Index(name string) int {
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	return -1
}
