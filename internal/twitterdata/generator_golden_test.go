package twitterdata

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// testdata/generator_parent.golden was written on commit 7ece0b9, the last
// one whose generator composed tweets with fmt, strings.Join, strings.ToUpper
// and time.Format. Do not regenerate it from this tree: it is the record of
// what that generator emitted, byte for byte.
//
// One line per generated corpus: "<name> <tweets> <sha256>", the digest
// taken over the NDJSON that Writer emits for the corpus's tweets in order.
const generatorGolden = "testdata/generator_parent.golden"

// goldenCorpora are the corpora the golden pins, in golden order: the
// aggression set at its default, retweet-heavy and with a concept shift, the
// unlabeled scalability stream plain and retweet-heavy, and the two §V-F
// related-behaviour sets.
var goldenCorpora = []struct {
	name string
	gen  func() []Tweet
}{
	{"aggression", func() []Tweet { return GenerateAggression(DefaultAggressionConfig()) }},
	{"aggression_dup0.3", func() []Tweet {
		cfg := DefaultAggressionConfig()
		cfg.DuplicateRatio = 0.3
		return GenerateAggression(cfg)
	}},
	{"aggression_shift43000", func() []Tweet {
		cfg := DefaultAggressionConfig()
		cfg.ShiftAt = 43000
		return GenerateAggression(cfg)
	}},
	{"unlabeled_50k", func() []Tweet { return unlabeledCorpus(42, 10, 0, 50000) }},
	{"unlabeled_50k_dup0.3", func() []Tweet { return unlabeledCorpus(43, 10, 0.3, 50000) }},
	{"sarcasm", func() []Tweet { return GenerateSarcasm(DefaultSarcasmConfig()) }},
	{"offensive", func() []Tweet { return GenerateOffensive(DefaultOffensiveConfig()) }},
}

func unlabeledCorpus(seed uint64, days int, dup float64, n int) []Tweet {
	src := NewUnlabeledSource(seed, days)
	src.SetDuplicateRatio(dup)
	out := make([]Tweet, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// corpusDigest returns the golden line of one corpus.
func corpusDigest(name string, tweets []Tweet) string {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	w := NewWriter(bw)
	for _, tw := range tweets {
		if err := w.Write(tw); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s %d %x", name, len(tweets), h.Sum(nil))
}

// TestGeneratorMatchesParent regenerates every golden corpus and compares
// its digest with the one the parent generator wrote.
func TestGeneratorMatchesParent(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine and allocation-heavy: nothing for the race detector to find")
	}
	raw, err := os.ReadFile(generatorGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(goldenCorpora) {
		t.Fatalf("golden has %d corpora, test generates %d", len(want), len(goldenCorpora))
	}
	for i, c := range goldenCorpora {
		if got := corpusDigest(c.name, c.gen()); got != want[i] {
			t.Errorf("corpus %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}
