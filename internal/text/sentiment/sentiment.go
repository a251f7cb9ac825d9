// Package sentiment implements SentiStrength-style lexicon sentiment
// scoring. Like the tool the paper uses, it reports two scores per text:
// a positive strength in [1, 5] and a negative strength in [-5, -1]
// (1 / -1 mean "no sentiment"). Scoring follows the SentiStrength recipe:
// each term carries a base strength, preceding booster words strengthen or
// weaken it, preceding negators flip it, and emphasis markers (elongated
// words, exclamation marks, shouting) add intensity. The package holds the
// word lists and the Stepper that folds resolved words into a Score; the
// text scanner tokenizes and the feature extractor resolves each word.
package sentiment

// Score is the result of scoring one text.
type Score struct {
	// Positive is the maximum positive strength found, in [1, 5].
	Positive int
	// Negative is the maximum negative strength found, in [-5, -1].
	Negative int
}

// negators flip the polarity of the following sentiment term.
var negators = map[string]bool{
	"not": true, "no": true, "never": true, "neither": true, "nor": true,
	"cannot": true, "cant": true, "dont": true, "doesnt": true,
	"didnt": true, "wont": true, "wouldnt": true, "shouldnt": true,
	"couldnt": true, "isnt": true, "arent": true, "wasnt": true,
	"werent": true, "aint": true, "without": true, "hardly": true,
	"barely": true, "scarcely": true,
}

// boosters adjust the strength of the following sentiment term.
var boosters = map[string]int{
	"very": 1, "really": 1, "extremely": 2, "incredibly": 2, "absolutely": 2,
	"totally": 1, "completely": 1, "utterly": 2, "so": 1, "too": 1,
	"deeply": 1, "insanely": 2, "super": 1, "freaking": 1, "fucking": 2,
	"damn": 1, "bloody": 1, "seriously": 1, "truly": 1, "especially": 1,
	"slightly": -1, "somewhat": -1, "barely": -1, "kinda": -1, "sorta": -1,
	"abit": -1, "mildly": -1, "fairly": -1,
}

// lexicon maps sentiment-bearing terms to base strengths. Positive values
// are in [2, 5], negative in [-5, -2], matching SentiStrength's term scale.
var lexicon = map[string]int{
	// strongly positive
	"love": 4, "loved": 4, "loves": 4, "adore": 5, "amazing": 4,
	"awesome": 4, "fantastic": 5, "wonderful": 4, "brilliant": 4,
	"excellent": 4, "perfect": 5, "best": 4, "beautiful": 4, "delighted": 4,
	"thrilled": 5, "ecstatic": 5, "superb": 4, "outstanding": 4,
	// positive
	"good": 3, "great": 3, "nice": 3, "happy": 3, "glad": 3, "fun": 3,
	"funny": 3, "cool": 2, "like": 2, "likes": 2, "liked": 2, "enjoy": 3,
	"enjoyed": 3, "pleased": 3, "proud": 3, "thanks": 3, "thank": 3,
	"grateful": 3, "sweet": 3, "kind": 3, "lovely": 3, "cute": 3,
	"win": 2, "won": 2, "winning": 2, "hope": 2, "hopeful": 2, "smile": 3,
	"laughed": 2, "laugh": 2, "excited": 3, "interesting": 2, "helpful": 2,
	"friendly": 3, "safe": 2, "calm": 2, "peaceful": 3, "fine": 2,
	"better": 2, "cheerful": 3, "congrats": 3, "congratulations": 3,
	"welcome": 2, "blessed": 3, "charming": 3, "gorgeous": 4, "yay": 3,
	// mildly negative
	"bad": -3, "sad": -3, "unhappy": -3, "sorry": -2, "annoying": -3,
	"annoyed": -3, "boring": -2, "bored": -2, "tired": -2, "worried": -2,
	"afraid": -3, "scared": -3, "weird": -2, "strange": -2, "wrong": -2,
	"poor": -2, "unfair": -3, "upset": -3, "lost": -2, "lose": -2,
	"losing": -2, "fail": -3, "failed": -3, "failure": -3, "problem": -2,
	"issues": -2, "broken": -2, "hurt": -3, "hurts": -3, "pain": -3,
	"painful": -3, "cry": -3, "crying": -3, "worse": -3, "worst": -4,
	"angry": -3, "mad": -3, "sick": -2, "sucks": -3, "suck": -3,
	"lame": -2, "mess": -2, "ruined": -3, "shame": -3, "ashamed": -3,
	"jealous": -2, "bitter": -2, "lonely": -3, "miserable": -4,
	// strongly negative / abusive vocabulary
	"hate": -4, "hates": -4, "hated": -4, "hateful": -4, "despise": -5,
	"loathe": -5, "disgusting": -4, "disgust": -4, "gross": -3,
	"horrible": -4, "terrible": -4, "awful": -4, "dreadful": -4,
	"pathetic": -4, "worthless": -4, "useless": -4, "stupid": -4,
	"idiot": -4, "idiots": -4, "idiotic": -4, "moron": -4, "morons": -4,
	"dumb": -3, "dumbass": -4, "fool": -3, "foolish": -3, "loser": -4,
	"losers": -4, "ugly": -3, "nasty": -4, "vile": -5, "evil": -4,
	"cruel": -4, "toxic": -4, "trash": -4, "garbage": -4, "filth": -4,
	"filthy": -4, "scum": -5, "scumbag": -5, "creep": -3, "creepy": -3,
	"disgrace": -4, "disgraceful": -4, "insult": -3, "insulting": -3,
	"offensive": -3, "abuse": -4, "abusive": -4, "bully": -4, "threat": -3,
	"threaten": -4, "kill": -4, "killed": -4, "die": -4, "dead": -3,
	"death": -3, "destroy": -3, "destroyed": -3, "attack": -3, "violent": -4,
	"violence": -4, "racist": -4, "sexist": -4, "bigot": -4, "bitch": -4,
	"bastard": -4, "damn": -3, "damnit": -3, "hell": -3, "crap": -3,
	"shit": -4, "shitty": -4, "bullshit": -4, "fuck": -4, "fucked": -4,
	"fucking": -4, "fucker": -5, "asshole": -5, "ass": -3, "dick": -4,
	"dickhead": -5, "prick": -4, "cunt": -5, "whore": -5, "slut": -5,
	"wanker": -4, "twat": -4, "retard": -5, "retarded": -5, "faggot": -5,
	"nigger": -5, "nigga": -4, "freak": -3, "psycho": -4, "maniac": -3,
	"liar": -3, "lies": -2, "lying": -3, "cheat": -3, "cheater": -3,
	"corrupt": -3, "fraud": -3, "disaster": -3, "tragic": -3, "tragedy": -3,
	"terrorist": -4, "murder": -4, "murderer": -5, "rape": -5, "rapist": -5,
}

// emoticons carry their own strengths, like SentiStrength's emoticon
// list. They are matched, case preserved, against whole
// whitespace-delimited fields before anything strips their punctuation.
var emoticons = map[string]int{
	":)": 3, ":-)": 3, ":D": 4, ":-D": 4, "=)": 3, ":]": 3, "^_^": 3,
	";)": 2, ";-)": 2, "<3": 4, ":*": 3, ":p": 2, ":P": 2, "xD": 4,
	":(": -3, ":-(": -3, ":'(": -4, ";(": -3, "=(": -3, ":[": -3,
	":/": -2, ":-/": -2, ":|": -2, "-_-": -2, "D:": -4, "</3": -4,
	">:(": -4, "T_T": -4,
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
