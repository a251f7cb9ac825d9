// Package pos implements a lightweight rule- and lexicon-based
// part-of-speech tagger. The detection pipeline only consumes the relative
// frequencies of adjectives, adverbs, and verbs (the paper's syntactic
// features), so the tagger favours speed and determinism over full
// Penn-Treebank fidelity: closed-class word lists resolve the common words,
// suffix heuristics resolve the open-class remainder, and a small amount of
// context (preceding determiner or "to") disambiguates nouns from verbs.
package pos

import "strings"

// Tag is a coarse part-of-speech category.
type Tag int

// Coarse tag set. Other covers symbols, numbers already filtered upstream,
// and anything unrecognizable.
const (
	Noun Tag = iota
	Verb
	Adjective
	Adverb
	Pronoun
	Determiner
	Preposition
	Conjunction
	Interjection
	Other
)

// String returns the conventional short name of the tag.
func (t Tag) String() string {
	switch t {
	case Noun:
		return "NOUN"
	case Verb:
		return "VERB"
	case Adjective:
		return "ADJ"
	case Adverb:
		return "ADV"
	case Pronoun:
		return "PRON"
	case Determiner:
		return "DET"
	case Preposition:
		return "PREP"
	case Conjunction:
		return "CONJ"
	case Interjection:
		return "INTJ"
	default:
		return "OTHER"
	}
}

var determiners = wordSet("a an the this that these those each every either neither some any no all both half several such what which whose my your his her its our their")

var pronouns = wordSet("i you he she it we they me him us them myself yourself himself herself itself ourselves themselves who whom whoever anyone everyone someone nobody anybody everybody something anything everything nothing mine yours hers ours theirs")

var prepositions = wordSet("in on at by for with about against between into through during before after above below to from up down of off over under again further near behind beyond within without across along around past toward towards upon onto")

var conjunctions = wordSet("and but or nor so yet because although though while whereas unless since if when whenever where wherever than whether")

var interjections = wordSet("oh wow ugh hey yay ouch oops hmm huh aha lol lmao omg wtf damn whoa yikes meh duh nah yeah yep nope ok okay")

// auxiliaries and modals are tagged as verbs.
var auxVerbs = wordSet("am is are was were be been being have has had do does did will would shall should can could may might must wont dont doesnt didnt cant couldnt shouldnt wouldnt aint isnt arent wasnt werent havent hasnt hadnt")

var commonVerbs = wordSet("go goes went gone going get gets got gotten getting make makes made making know knows knew known think thinks thought take takes took taken say says said see sees saw seen come comes came want wants wanted wanting look looks looked looking use uses used find finds found give gives gave given tell tells told work works worked call calls called try tries tried tried ask asks asked need needs needed feel feels felt become becomes became leave leaves left put puts mean means meant keep keeps kept let lets begin begins began seem seems seemed help helps helped talk talks talked turn turns turned start starts started show shows showed hear hears heard play plays played run runs ran move moves moved like likes liked live lives lived believe believes believed hold holds held bring brings brought happen happens happened write writes wrote provide provides provided sit sits sat stand stands stood lose loses lost pay pays paid meet meets met include includes included continue continues continued set sets learn learns learned change changes changed lead leads led understand understands understood watch watches watched follow follows followed stop stops stopped create creates created speak speaks spoke read reads spend spends spent grow grows grew open opens opened walk walks walked win wins won offer offers offered remember remembers remembered love loves loved consider considers considered appear appears appeared buy buys bought wait waits waited serve serves served die dies died send sends sent expect expects expected build builds built stay stays stayed fall falls fell cut cuts reach reaches reached kill kills killed remain remains remained hate hates hated suck sucks sucked shut shuts deserve deserves deserved")

var commonAdjectives = wordSet("good bad great small large big little old new young long short high low right wrong different same important public able early late hard easy strong weak free full special whole clear recent certain personal open red blue green white black happy sad angry stupid dumb ugly pretty beautiful horrible terrible awful nice awesome amazing pathetic disgusting nasty vile worthless useless lazy crazy insane sick evil cruel mean rude selfish arrogant ignorant toxic fake real true false serious funny ridiculous absurd miserable foul dirty filthy rotten gross creepy weird strange wild calm quiet loud proud brave afraid worried ashamed jealous bitter hostile violent dangerous harmless innocent guilty poor rich cheap expensive huge tiny enormous massive endless empty alone lonely lovely sweet kind gentle warm cold hot cool dark bright best worst better worse")

var commonAdverbs = wordSet("very really quite too so just only now then here there always never often sometimes usually rarely seldom already still yet soon today tomorrow yesterday maybe perhaps probably definitely certainly absolutely totally completely utterly extremely incredibly honestly seriously literally actually finally suddenly quickly slowly badly well almost nearly hardly barely again once twice everywhere nowhere somewhere anymore together apart away back forward instead otherwise anyway even ever not")

// closedClasses lists the closed-class word sets in priority order: a word
// in several sets takes the tag of the first.
var closedClasses = []struct {
	words map[string]bool
	tag   Tag
}{
	{determiners, Determiner}, {pronouns, Pronoun}, {prepositions, Preposition},
	{conjunctions, Conjunction}, {interjections, Interjection}, {auxVerbs, Verb},
	{commonAdverbs, Adverb}, {commonAdjectives, Adjective}, {commonVerbs, Verb},
}

// ClosedClass returns every word the lexicon tags without looking at
// suffixes or context, with its tag. The feature package folds it into its
// fused per-token lookup table.
func ClosedClass() map[string]Tag {
	out := make(map[string]Tag)
	for i := len(closedClasses) - 1; i >= 0; i-- {
		for w := range closedClasses[i].words {
			out[w] = closedClasses[i].tag
		}
	}
	return out
}

// suffixRules indexes the three suffix lists by their last byte, so that
// TagOpenLower compares a word against the handful of suffixes it can end in
// instead of looping over all thirty.
var suffixRules = func() (t [256][]suffixRule) {
	for class, list := range [][]string{adjSuffixes, verbSuffixes, nounSuffixes} {
		for _, s := range list {
			c := s[len(s)-1]
			t[c] = append(t[c], suffixRule{suffix: s, class: 1 << class})
		}
	}
	return t
}()

type suffixRule struct {
	suffix string
	class  uint8 // 1: adjective, 2: verb, 4: noun
}

// TagOpenLower tags one lowercased word that is in no closed-class set,
// given whether the previous word is "to" and whether the previous word was
// tagged Determiner. The feature package's reference tests pin it to the
// word-by-word tagger it replaced.
//
//redvet:noalloc gate=FeaturePathFast
func TagOpenLower(w []byte, afterTo, afterDeterminer bool) Tag {
	n := len(w)
	if n == 0 {
		return Other
	}
	var classes uint8
	for _, r := range suffixRules[w[n-1]] {
		if n > len(r.suffix)+1 && string(w[n-len(r.suffix):]) == r.suffix {
			classes |= r.class
		}
	}
	adjective, verb, noun := classes&1 != 0, classes&2 != 0, classes&4 != 0
	switch {
	case afterTo && !adjective && !noun:
		return Verb // "to <word>" is an infinitive
	case n > 3 && w[n-1] == 'y' && w[n-2] == 'l':
		return Adverb
	case adjective:
		return Adjective
	case verb && !afterDeterminer:
		return Verb
	}
	return Noun
}

// The open-class suffix lists; a suffix counts only on a word at least two
// bytes longer than itself.
var (
	adjSuffixes  = []string{"ful", "ous", "ive", "able", "ible", "ish", "less", "ic", "al", "ant", "ent", "est"}
	verbSuffixes = []string{"ing", "ed", "ize", "ise", "ify", "ate"}
	nounSuffixes = []string{"tion", "sion", "ness", "ment", "ity", "ship", "hood", "ism", "ist", "er", "or", "ology"}
)

func wordSet(words string) map[string]bool {
	set := map[string]bool{}
	for _, w := range strings.Fields(words) {
		set[w] = true
	}
	return set
}
