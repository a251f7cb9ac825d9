// Package lexicon embeds the word lists used by the feature extraction
// pipeline. The paper seeds its swear-word feature and adaptive bag-of-words
// with a 347-entry curse-word list obtained from noswearing.com; that exact
// list is not redistributable, so this package ships a functionally
// equivalent list: a curated base of common English profanity expanded with
// the leetspeak/obfuscation variants such lists include, truncated
// deterministically to the same 347 seed entries.
package lexicon

import (
	"sort"
	"strings"
)

// SeedSwearCount is the size of the seed swear-word list, matching the
// paper's report that "the list is initialized with 347 swear words".
const SeedSwearCount = 347

// baseSwears is the curated profanity base list (lower case, no variants).
// The words themselves are offensive by construction: this is the signal the
// aggression detector keys on.
var baseSwears = []string{
	"anal", "anus", "arse", "arsehole", "ass", "asshat", "asshole",
	"assclown", "assface", "asswipe", "bastard", "bastards", "bellend",
	"bimbo", "bitch", "bitches", "bitchy", "bloody", "blowjob", "bollocks",
	"boner", "boob", "boobs", "bugger", "bullshit", "bullshitter", "bum",
	"butt", "butthead", "butthole", "chink", "choad", "clit", "cock",
	"cockhead", "cocksucker", "coon", "crap", "crappy", "cretin", "cum",
	"cunt", "cunts", "dago", "damn", "damnit", "dick", "dickhead",
	"dickwad", "dildo", "dipshit", "douche", "douchebag", "dumb", "dumbass",
	"dumbfuck", "dyke", "fag", "faggot", "fags", "fatass", "fck", "feck",
	"fuck", "fucked", "fucker", "fuckers", "fuckface", "fuckhead",
	"fucking", "fucks", "fucktard", "fuckwit", "gash", "gimp", "gobshite",
	"goddamn", "gook", "gringo", "halfwit", "hell", "ho", "hoe", "homo",
	"honky", "hooker", "horseshit", "hussy", "idiot", "idiots", "imbecile",
	"jackass", "jerk", "jerkoff", "jizz", "kike", "knob", "knobhead",
	"kraut", "loser", "losers", "lowlife", "maggot", "minger", "moron",
	"morons", "motherfucker", "motherfuckers", "motherfucking", "muppet",
	"nazi", "negro", "nigga", "niggas", "nigger", "niggers", "nitwit",
	"nonce", "numpty", "nutjob", "paki", "pansy", "pecker", "penis",
	"pervert", "phuck", "pig", "pillock", "pimp", "piss", "pissed",
	"pisser", "pissflaps", "plonker", "ponce", "poof", "poon", "prat",
	"prick", "pricks", "pube", "pussies", "pussy", "queef", "queer",
	"retard", "retarded", "retards", "sambo", "scrote", "scum", "scumbag",
	"shag", "shemale", "shit", "shitbag", "shite", "shitface", "shithead",
	"shithole", "shits", "shitty", "skank", "slag", "slapper", "slut",
	"sluts", "slutty", "smartass", "spastic", "spic", "sperg", "sucker",
	"tard", "tart", "thot", "tit", "tits", "titties", "tosser", "tramp",
	"tranny", "turd", "twat", "twats", "twit", "wank", "wanker", "wankers",
	"wetback", "whore", "whores", "wop",
}

// leetRules maps letters to their common obfuscated spellings. Variants are
// generated by substituting one rule at a time, mirroring how published
// swear lists enumerate evasion spellings ("sh1t", "fuk", "b!tch").
var leetRules = []struct{ from, to string }{
	{"a", "@"},
	{"i", "1"},
	{"e", "3"},
	{"o", "0"},
	{"s", "$"},
	{"ck", "k"},
	{"u", "v"},
}

var seedList []string

func init() {
	seen := map[string]bool{}
	var list []string
	add := func(w string) {
		if w == "" || seen[w] {
			return
		}
		seen[w] = true
		list = append(list, w)
	}
	for _, w := range baseSwears {
		add(w)
	}
	// Expand with obfuscation variants in deterministic (sorted base,
	// ordered rules) sequence until the seed size is reached.
	sorted := append([]string(nil), baseSwears...)
	sort.Strings(sorted)
outer:
	for _, rule := range leetRules {
		for _, w := range sorted {
			if len(list) >= SeedSwearCount {
				break outer
			}
			if strings.Contains(w, rule.from) {
				add(strings.Replace(w, rule.from, rule.to, 1))
			}
		}
	}
	if len(list) > SeedSwearCount {
		list = list[:SeedSwearCount]
	}
	seedList = list
}

// SwearWords returns a copy of the 347-entry seed swear-word list.
func SwearWords() []string {
	cp := make([]string, len(seedList))
	copy(cp, seedList)
	return cp
}
