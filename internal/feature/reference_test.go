package feature

import (
	"cmp"
	"strings"
	"unicode"

	"redhanded/internal/text/lexicon"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// The multi-pass extractor as it stood on commit ca89b3d, before the
// scanner took over p=OFF: Clean + Tokenize + one pass per feature, copied
// from internal/text, internal/text/{sentiment,pos,lexicon} and this
// package with its logic unchanged. Names are lowercased to live here
// (text.WordsPerSentence is rawWordsPerSentence, Tagger.Count countTags,
// AdaptiveBoW.Score score), the word lists come from their packages (the
// sentiment ones merged, as sentiment.Words serves them), doc comments and
// dead branches are left in git history, and one-line helpers are written
// as one line. What it computed on the parent is also recorded
// as data in testdata/preprocess_off.golden.

// --- internal/feature/extractor.go

var (
	cleanOpts = cleanOptions{RemoveURLs: true, RemoveMentions: true, RemoveHashtags: true,
		RemoveAbbreviations: true, RemoveNumbers: true, RemovePunctuation: true}
	sentOpts = cleanOptions{RemoveURLs: true, RemoveMentions: true, RemoveHashtags: true,
		RemoveAbbreviations: true}
)

func (e *Extractor) extractLegacyInto(x []float64, tw *twitterdata.Tweet) {
	x[AccountAge] = tw.AccountAgeDays()
	x[CntPosts] = float64(tw.User.StatusesCount)
	x[CntLists] = float64(tw.User.ListedCount)
	x[CntFollowers] = float64(tw.User.FollowersCount)
	x[CntFriends] = float64(tw.User.FriendsCount)

	raw := tw.Text
	x[NumHashtags] = float64(countTokenKind(raw, isHashtagToken))
	x[NumURLs] = float64(countTokenKind(raw, isURLToken))
	x[NumUpperCases] = float64(countUpperWords(raw))

	body := raw
	if e.cfg.Preprocess {
		body = clean(raw, cleanOpts)
	}
	tokens := tokenize(body)
	x[MeanWordLength] = meanWordLength(tokens)
	x[WordsPerSentence] = e.wordsPerSentence(raw, len(tokens))

	counts := countTags(tokens)
	x[CntAdjectives] = float64(counts.Adjectives)
	x[CntAdverbs] = float64(counts.Adverbs)
	x[CntVerbs] = float64(counts.Verbs)

	score := analyze(body)
	x[SentimentScorePos] = float64(score.Positive)
	x[SentimentScoreNeg] = float64(score.Negative)

	x[CntSwearWords] = float64(countSwears(tokens))
	x[BoWScore] = e.bow.score(tokens)
}

func (e *Extractor) wordsPerSentence(raw string, tokenCount int) float64 {
	if !e.cfg.Preprocess {
		return rawWordsPerSentence(raw)
	}
	sentences := splitSentences(clean(raw, sentOpts))
	if len(sentences) == 0 {
		return 0
	}
	return float64(tokenCount) / float64(len(sentences))
}

// --- internal/feature/bow.go

func (b *AdaptiveBoW) score(tokens []string) float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0.0
	for _, tok := range tokens {
		if b.words[strings.ToLower(tok)] {
			n++
		}
	}
	return n
}

// --- internal/text/text.go

type cleanOptions struct {
	RemoveURLs, RemoveMentions, RemoveHashtags, RemoveAbbreviations bool
	RemoveNumbers, RemovePunctuation                                bool
}

var tweetAbbreviations = map[string]bool{
	"rt": true, "mt": true, "ht": true, "cc": true, "dm": true,
	"prt": true, "tmb": true, "oh": true, "fb": true, "ff": true,
}

func isURLToken(tok string) bool {
	lower := strings.ToLower(tok)
	return strings.HasPrefix(lower, "http://") ||
		strings.HasPrefix(lower, "https://") ||
		strings.HasPrefix(lower, "www.") ||
		strings.HasPrefix(lower, "t.co/")
}

func isMentionToken(tok string) bool { return len(tok) > 1 && tok[0] == '@' }
func isHashtagToken(tok string) bool { return len(tok) > 1 && tok[0] == '#' }

func clean(s string, opts cleanOptions) string {
	fields := strings.Fields(s)
	var b strings.Builder
	b.Grow(len(s))
	for _, tok := range fields {
		switch {
		case opts.RemoveURLs && isURLToken(tok):
			continue
		case opts.RemoveMentions && isMentionToken(tok):
			continue
		case opts.RemoveHashtags && isHashtagToken(tok):
			continue
		case opts.RemoveAbbreviations && tweetAbbreviations[strings.ToLower(trimPunct(tok))]:
			continue
		}
		cleaned := cleanToken(tok, opts)
		if cleaned == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(cleaned)
	}
	return b.String()
}

func cleanToken(tok string, opts cleanOptions) string {
	var b strings.Builder
	b.Grow(len(tok))
	for _, r := range tok {
		switch {
		case unicode.IsLetter(r), r == '\'':
			b.WriteRune(r)
		case unicode.IsDigit(r):
			if !opts.RemoveNumbers {
				b.WriteRune(r)
			}
		default:
			if !opts.RemovePunctuation {
				b.WriteRune(r)
			}
		}
	}
	return strings.Trim(b.String(), "'")
}

func trimPunct(tok string) string { return strings.TrimFunc(tok, isNotAlnum) }
func isNotAlnum(r rune) bool      { return !unicode.IsLetter(r) && !unicode.IsDigit(r) }

// --- internal/text/tokenize.go

func tokenize(s string) []string {
	fields := strings.Fields(s)
	toks := make([]string, 0, len(fields))
	for _, f := range fields {
		t := trimPunct(f)
		if t != "" {
			toks = append(toks, t)
		}
	}
	return toks
}

func splitSentences(s string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		sent := strings.TrimSpace(b.String())
		if sent != "" && hasLetter(sent) {
			out = append(out, sent)
		}
		b.Reset()
	}
	for _, r := range s {
		switch r {
		case '.', '!', '?', '\n':
			flush()
		default:
			b.WriteRune(r)
		}
	}
	flush()
	return out
}

func isUpperWord(tok string) bool {
	letters := 0
	for _, r := range tok {
		if unicode.IsLetter(r) {
			if !unicode.IsUpper(r) {
				return false
			}
			letters++
		}
	}
	return letters >= 2
}

func countUpperWords(s string) int {
	n := 0
	for _, f := range strings.Fields(s) {
		if isURLToken(f) || isMentionToken(f) || isHashtagToken(f) {
			continue
		}
		t := trimPunct(f)
		if t == "" || strings.EqualFold(t, "rt") {
			continue
		}
		if isUpperWord(t) {
			n++
		}
	}
	return n
}

func countTokenKind(s string, match func(string) bool) int {
	n := 0
	for _, f := range strings.Fields(s) {
		if match(f) {
			n++
		}
	}
	return n
}

func meanWordLength(tokens []string) float64 {
	if len(tokens) == 0 {
		return 0
	}
	total := 0
	for _, t := range tokens {
		for _, r := range t {
			if unicode.IsLetter(r) {
				total++
			}
		}
	}
	return float64(total) / float64(len(tokens))
}

func rawWordsPerSentence(s string) float64 {
	sentences := splitSentences(s)
	if len(sentences) == 0 {
		return 0
	}
	total := 0
	for _, sent := range sentences {
		total += len(tokenize(sent))
	}
	return float64(total) / float64(len(sentences))
}

func hasElongation(tok string) bool {
	run, prev := 0, rune(-1)
	for _, r := range tok {
		if r == prev {
			run++
			if run >= 3 {
				return true
			}
		} else {
			prev, run = r, 1
		}
	}
	return false
}

func hasLetter(s string) bool { return strings.ContainsFunc(s, unicode.IsLetter) }

// --- internal/text/sentiment/sentiment.go

var sentimentWords = sentiment.Words()

func analyze(text string) sentiment.Score {
	maxPos, maxNeg := 1, -1
	exclaims := strings.Count(text, "!")

	tokens := strings.Fields(text)
	boost := 0
	negate := false
	for _, raw := range tokens {
		if v, ok := emoticons[raw]; ok {
			if v > maxPos {
				maxPos = v
			}
			if v < maxNeg {
				maxNeg = v
			}
			boost, negate = 0, false
			continue
		}
		shout := isShout(raw)
		w := normalizeToken(raw)
		if w == "" {
			continue
		}
		elongated := hasElongation(raw)
		if sentimentWords[w].Negator {
			negate = true
			continue
		}
		if b := sentimentWords[w].Boost; b != 0 {
			boost += b
			continue
		}
		strength := sentimentWords[w].Strength
		if strength == 0 {
			if elongated {
				strength = sentimentWords[squeeze(w)].Strength
			}
			if strength == 0 {
				boost, negate = 0, false
				continue
			}
		}
		mag := abs(strength) + boost
		if elongated {
			mag++
		}
		if shout {
			mag++
		}
		mag = clamp(mag, 1, 5)
		sign := sign(strength)
		if negate {
			sign = -sign
			mag = clamp(mag-1, 1, 5)
		}
		v := sign * mag
		if v > 0 && v > maxPos {
			maxPos = v
		}
		if v < 0 && v < maxNeg {
			maxNeg = v
		}
		boost, negate = 0, false
	}

	if exclaims > 0 {
		bump := 1
		if exclaims >= 3 {
			bump = 2
		}
		if -maxNeg >= maxPos && maxNeg < -1 {
			maxNeg = clamp(maxNeg-bump, -5, -1)
		} else if maxPos > 1 {
			maxPos = clamp(maxPos+bump, 1, 5)
		}
	}
	return sentiment.Score{Positive: maxPos, Negative: maxNeg}
}

func normalizeToken(tok string) string {
	return strings.ReplaceAll(strings.ToLower(strip(tok)), "'", "")
}

func isShout(tok string) bool {
	letters, uppers := 0, 0
	for _, r := range tok {
		if unicode.IsLetter(r) {
			letters++
			if unicode.IsUpper(r) {
				uppers++
			}
		}
	}
	return letters >= 2 && uppers == letters
}

func squeeze(w string) string {
	var b strings.Builder
	var prev rune = -1
	for _, r := range w {
		if r != prev {
			b.WriteRune(r)
		}
		prev = r
	}
	return b.String()
}

func abs(v int) int           { return max(v, -v) }
func sign(v int) int          { return cmp.Compare(v, 0) }
func clamp(v, lo, hi int) int { return min(max(v, lo), hi) }

// --- internal/text/pos/pos.go

var closedClass = pos.ClosedClass()

func tagTokens(tokens []string) []pos.Tag {
	tags := make([]pos.Tag, len(tokens))
	for i, tok := range tokens {
		tags[i] = tagOne(strings.ToLower(strip(tok)), i, tokens, tags)
	}
	return tags
}

type tagCounts struct{ Verbs, Adjectives, Adverbs int }

func countTags(tokens []string) tagCounts {
	var c tagCounts
	for _, t := range tagTokens(tokens) {
		switch t {
		case pos.Verb:
			c.Verbs++
		case pos.Adjective:
			c.Adjectives++
		case pos.Adverb:
			c.Adverbs++
		}
	}
	return c
}

func tagOne(w string, i int, tokens []string, tags []pos.Tag) pos.Tag {
	if w == "" {
		return pos.Other
	}
	if tag, ok := closedClass[w]; ok {
		return tag
	}
	if i > 0 {
		prev := strings.ToLower(strip(tokens[i-1]))
		if prev == "to" && !suffixAdjective(w) && !suffixNoun(w) {
			return pos.Verb
		}
	}
	switch {
	case strings.HasSuffix(w, "ly") && len(w) > 3:
		return pos.Adverb
	case suffixAdjective(w):
		return pos.Adjective
	case suffixVerb(w):
		if i > 0 && tags[i-1] == pos.Determiner {
			return pos.Noun
		}
		return pos.Verb
	case suffixNoun(w):
		return pos.Noun
	default:
		return pos.Noun
	}
}

var (
	adjSuffixes  = []string{"ful", "ous", "ive", "able", "ible", "ish", "less", "ic", "al", "ant", "ent", "est"}
	verbSuffixes = []string{"ing", "ed", "ize", "ise", "ify", "ate"}
	nounSuffixes = []string{"tion", "sion", "ness", "ment", "ity", "ship", "hood", "ism", "ist", "er", "or", "ology"}
)

func suffixAdjective(w string) bool { return hasListedSuffix(w, adjSuffixes) }
func suffixVerb(w string) bool      { return hasListedSuffix(w, verbSuffixes) }
func suffixNoun(w string) bool      { return hasListedSuffix(w, nounSuffixes) }

func hasListedSuffix(w string, list []string) bool {
	for _, s := range list {
		if strings.HasSuffix(w, s) && len(w) > len(s)+1 {
			return true
		}
	}
	return false
}

func strip(tok string) string { return strings.TrimFunc(tok, isNotLetter) }

// --- internal/text/lexicon/lexicon.go

var seedSet = func() map[string]bool {
	set := make(map[string]bool)
	for _, w := range lexicon.SwearWords() {
		set[w] = true
	}
	return set
}()

func isSwear(token string) bool { return seedSet[strings.ToLower(token)] }

func countSwears(tokens []string) int {
	n := 0
	for _, t := range tokens {
		if isSwear(t) {
			n++
		}
	}
	return n
}
