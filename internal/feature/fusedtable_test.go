package feature

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"redhanded/internal/text/lexicon"
	"redhanded/internal/text/pos"
	"redhanded/internal/text/sentiment"
	"redhanded/internal/twitterdata"
)

// sourceWords returns every key of every list the fused table is built
// from, sorted, plus the learned BoW words the caller overlays.
func sourceWords(learned []string) []string {
	set := map[string]bool{}
	for w := range pos.ClosedClass() {
		set[w] = true
	}
	for w := range sentiment.Words() {
		set[w] = true
	}
	for e := range emoticons {
		set[e] = true
		set[strings.ToLower(e)] = true
		if key := strings.ToLower(strip(e)); key != "" {
			set[key] = true
		}
	}
	for _, w := range lexicon.SwearWords() {
		set[w] = true
	}
	for _, w := range learned {
		set[w] = true
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// randomNonMembers returns n deterministic pseudo-words that are on no
// list; half end in one of the tagger's suffixes so the open-class switch
// sees every arm, some carry apostrophes or non-ASCII letters.
func randomNonMembers(n int, member map[string]bool) []string {
	suffixes := strings.Fields("ful ous ive able ible ish less ic al ant ent est ing ed ize ise ify ate " +
		"tion sion ness ment ity ship hood ism ist er or ology ly l s e h c t g d y n p m r")
	const letters = "abcdefghijklmnopqrstuvwxyzéßñ'"
	rng := rand.New(rand.NewSource(13))
	out := make([]string, 0, n)
	for len(out) < n {
		var b strings.Builder
		for i, l := 0, rng.Intn(7); i <= l; i++ {
			r := []rune(letters)[rng.Intn(len([]rune(letters)))]
			if r == '\'' && (i == 0 || i == l) {
				r = 'x' // cleaned tokens never start or end with an apostrophe
			}
			b.WriteRune(r)
		}
		if rng.Intn(2) == 0 {
			b.WriteString(suffixes[rng.Intn(len(suffixes))])
		}
		if w := b.String(); !member[w] {
			out = append(out, w)
		}
	}
	return out
}

// TestFusedTableMatchesLegacyLists is the table's exhaustive contract: for
// every key of every source list, its upper-cased, apostrophe-inserted and
// elongated variants, every suffix of the tagger at the lengths either side
// of its minimum, and 10k non-members, one fused lookup gives exactly the
// tag, swear and BoW answers of the reference's map-based functions in
// each left context, and texts built around the word extract to the
// reference vector under both specs (which pins the sentiment step in
// boosted, negated and plain positions).
func TestFusedTableMatchesLegacyLists(t *testing.T) {
	// Learned words overlay static keys of every kind and add bare ones.
	learned := []string{"zorp", "quorith", "so", "not", "good", "the", "running", "xd"}
	var extractors []*Extractor
	for _, preprocess := range []bool{true, false} {
		e := NewExtractor(Config{Preprocess: preprocess})
		e.BoW().SetWords(append(e.BoW().Words(), learned...))
		extractors = append(extractors, e)
	}
	e := extractors[0]
	snap := e.bow.lookupSnapshot()

	keys := sourceWords(learned)
	for _, s := range append(adjSuffixes, append(verbSuffixes, append(nounSuffixes, "ly")...)...) {
		for _, stem := range []string{"", "z", "zq", "zqx", "zqxl"} {
			keys = append(keys, stem+s)
		}
	}
	keys = append(keys, "government", "hopelessness", "zqly", "zly", "ly", "y", "z", "économiste", "zqé")
	member := map[string]bool{}
	for _, w := range keys {
		member[w] = true
	}
	for _, w := range []string{"so", "not", "damn", "barely", "fucking"} {
		if !member[w] {
			t.Fatalf("%q should sit in several source lists", w)
		}
	}

	checkWord := func(w string) {
		t.Helper()
		info := snap.lookup([]byte(w))
		if got, want := info&infoSwear != 0, isSwear(w); got != want {
			t.Errorf("%q: swear = %v, legacy %v", w, got, want)
		}
		if got, want := info&infoBoW != 0, e.BoW().Contains(w); got != want {
			t.Errorf("%q: BoW = %v, legacy %v", w, got, want)
		}
		if got, want := info.sentiment().Strength, sentimentWords[w].Strength; got != want {
			t.Errorf("%q: term strength = %d, legacy %d", w, got, want)
		}
		if strings.ContainsAny(w, "@$!013") || strip(w) != w {
			return // leet seed spellings and punctuated emoticons never reach the tagger as one key
		}
		for _, prev := range []string{"to", "the"} {
			want := tagTokens([]string{prev, w})[1]
			got, closed := info.tag()
			if !closed {
				got = pos.TagOpenLower([]byte(w), prev == "to", prev == "the")
			}
			if got != want {
				t.Errorf("%q after %q: tag = %v, legacy %v", w, prev, got, want)
			}
		}
	}
	fast, slow := make([]float64, NumFeatures), make([]float64, NumFeatures)
	checkTexts := func(w string) {
		t.Helper()
		for _, text := range []string{w, "to " + w + " the " + w, "not " + w, "very so " + w + " bad", w + " " + w + " good"} {
			tw := twitterdata.Tweet{Text: text}
			for _, e := range extractors {
				e.extractLegacyInto(slow, &tw)
				e.ExtractInto(fast, &tw)
				if diff := vectorDiff(slow, fast); diff != "" {
					t.Errorf("p=%v, text %q: %s", e.cfg.Preprocess, text, diff)
				}
			}
		}
	}

	for _, w := range keys {
		if w == strings.ToLower(w) { // the table is keyed on lowered tokens
			checkWord(w)
		}
		checkTexts(w)
		checkTexts(strings.ToUpper(w))
		if len(w) > 1 {
			checkTexts(w[:1] + "'" + w[1:])
			checkTexts(w[:len(w)-1] + "'" + w[len(w)-1:])
		}
		checkTexts(w + w[len(w)-1:] + w[len(w)-1:])                // elongated tail: "sooo"
		checkTexts(w[:1] + w[:1] + w[:1] + strings.ToUpper(w[1:])) // elongated head, mixed case
	}
	for _, w := range randomNonMembers(10000, member) {
		if info := snap.lookup([]byte(w)); info != 0 {
			t.Errorf("non-member %q: lookup = %#x, want a miss", w, info)
		}
		checkWord(w)
		checkTexts(w)
	}
}

// TestFusedTablePacking pins the packed layout: every value the word lists
// hold today survives the trip through a table entry, and every emoticon's
// key (letters-trimmed, lowered: "xd" for "xD", "d" for ":D") carries the
// emoticon bit that makes the extractor try the word as an emoticon.
func TestFusedTablePacking(t *testing.T) {
	snap := NewAdaptiveBoW(BoWConfig{}).lookupSnapshot()
	for e := range emoticons {
		key := strings.ToLower(strip(e))
		if key != "" && snap.lookup([]byte(key))&infoEmoticon == 0 {
			t.Errorf("emoticon %q: key %q lacks the emoticon bit", e, key)
		}
	}
	for w, want := range sentiment.Words() {
		if got := snap.lookup([]byte(w)).sentiment(); got != want {
			t.Errorf("%q: sentiment %+v unpacks as %+v", w, want, got)
		}
	}
	for w, want := range pos.ClosedClass() {
		if got, closed := snap.lookup([]byte(w)).tag(); !closed || got != want {
			t.Errorf("%q: tag %v unpacks as %v (closed=%v)", w, want, got, closed)
		}
	}
	for tag := pos.Noun; tag <= pos.Other; tag++ {
		if got, closed := (wordInfo(tag) + 1 | infoNegator | infoSwear).tag(); !closed || got != tag {
			t.Errorf("tag %v unpacks as %v (closed=%v)", tag, got, closed)
		}
	}
}

// TestExtractRacingTableRepublication holds extraction to the contract
// the micro-batch engine relies on: several goroutines may extract at once
// while nothing learns, and learning republishes the fused table between
// such rounds. After every Learn, four goroutines extract the probes
// concurrently, and every vector must be the legacy vector of the
// vocabulary published at that point. Run under -race it also proves that
// joining the extractors before learning orders the republication.
func TestExtractRacingTableRepublication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BoW.updateEvery = 50 // many enhancement rounds in a short stream
	corpus := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 5, Days: 2, NormalCount: 1500, AbusiveCount: 1000, HatefulCount: 500,
	})
	probes := corpus[:64]

	// Reference pass: the same Learn sequence, recording the legacy vector
	// of every probe under every published version.
	ref := NewExtractor(cfg)
	var byVersion [][]Vec
	record := func() {
		vs := make([]Vec, len(probes))
		for i := range probes {
			ref.extractLegacyInto(vs[i][:], &probes[i])
		}
		byVersion = append(byVersion, vs)
	}
	record()
	for i := range corpus {
		before := ref.BoW().SnapshotVersion()
		ref.Learn(&corpus[i])
		if ref.BoW().SnapshotVersion() != before {
			record()
		}
	}
	if len(byVersion) < 5 {
		t.Fatalf("only %d table publications; the test needs a moving vocabulary", len(byVersion))
	}

	e := NewExtractor(cfg)
	v0 := e.BoW().SnapshotVersion()
	for n := range corpus {
		e.Learn(&corpus[n])
		want := byVersion[e.BoW().SnapshotVersion()-v0]
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var v Vec
				for k := 0; k < 4; k++ {
					i := (4*n + 4*g + k) % len(probes)
					if e.ExtractInto(v[:], &probes[i]); v != want[i] {
						t.Errorf("after learn %d, probe %d (%q): vector %v is not the published vocabulary's", n, i, probes[i].Text, v)
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if got := e.BoW().SnapshotVersion() - v0 + 1; got != uint64(len(byVersion)) {
		t.Errorf("run published %d versions, reference %d", got, len(byVersion))
	}
}

// FuzzFusedTableLookup: a table built from the static lists plus a random
// BoW answers every probe as a map from key to packed value does — for the
// BoW words, the probes, and each one's prefixes at the slot's word
// boundaries (0, 7, 8, 9, 15, 16, 17 bytes) and its extensions, which share
// their first 16 bytes with it. keyWords must load those bytes exactly.
func FuzzFusedTableLookup(f *testing.F) {
	long := "abcdefghijklmnopqrstuvwxyz0123456789"
	f.Add("zorp quorith", "zorp idiot xd so")
	f.Add(long[:16]+" "+long[:17]+" "+long, long[:15]+" "+long[:16]+"x "+long[:32]+" "+long[:16]+"\x00")
	f.Add("ab\x00 \x00 é ab\xff"+long[:9], "ab ab\x00\x00 "+long[:7]+" "+long[:8]+" fucking fuckingfuckingfucking")
	f.Fuzz(func(t *testing.T, bowWords, probes string) {
		bow := map[string]bool{}
		want := map[string]wordInfo{}
		for _, e := range staticEntries {
			want[e.key] = e.info
		}
		for _, w := range strings.Split(bowWords, " ") {
			if w != "" {
				bow[w] = true
				want[w] |= infoBoW
			}
		}
		snap := buildFusedTable(bow, 1)
		check := func(key string) {
			var first [16]byte
			copy(first[:], key)
			if lo, hi := keyWords([]byte(key)); lo != binary.LittleEndian.Uint64(first[:]) || hi != binary.LittleEndian.Uint64(first[8:]) {
				t.Fatalf("keyWords(%q) = %#x, %#x, want its first 16 bytes", key, lo, hi)
			}
			if got := snap.lookup([]byte(key)); got != want[key] {
				t.Fatalf("lookup(%q) = %#x, want %#x", key, got, want[key])
			}
		}
		for _, w := range append(strings.Split(probes, " "), strings.Split(bowWords, " ")...) {
			for _, n := range []int{0, 7, 8, 9, 15, 16, 17, len(w)} {
				check(w[:min(n, len(w))])
			}
			check(w + "s")
			check(w + "\x00")
		}
	})
}
