package feature

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"redhanded/internal/twitterdata"
)

// goldenCorpus is the full synthetic generator corpus — every class
// profile, every day — plus unlabeled generator traffic, which exercises
// the same profiles through the endless source (slang drift included).
func goldenCorpus(t *testing.T) []twitterdata.Tweet {
	t.Helper()
	cfg := twitterdata.AggressionConfig{
		Seed:         7,
		Days:         10,
		NormalCount:  6300,
		AbusiveCount: 3200,
		HatefulCount: 1200,
	}
	tweets := twitterdata.GenerateAggression(cfg)
	if len(tweets) < 10000 {
		t.Fatalf("corpus too small: %d tweets", len(tweets))
	}
	unlabeled := twitterdata.NewUnlabeledSource(11, cfg.Days)
	for i := 0; i < 2000; i++ {
		tweets = append(tweets, unlabeled.Next())
	}
	return tweets
}

// TestGoldenEquivalence is the extraction's contract: over goldenCorpus,
// with the adaptive BoW learning and enhancing between extractions, the
// single-pass ExtractInto must produce bit-identical feature vectors to the
// multi-pass reference under both specs.
func TestGoldenEquivalence(t *testing.T) {
	tweets := goldenCorpus(t)
	for _, preprocess := range []bool{true, false} {
		e := NewExtractor(Config{Preprocess: preprocess})
		fast := make([]float64, NumFeatures)
		slow := make([]float64, NumFeatures)
		for i := range tweets {
			tw := &tweets[i]
			e.extractLegacyInto(slow, tw)
			e.ExtractInto(fast, tw)
			if diff := vectorDiff(slow, fast); diff != "" {
				t.Fatalf("p=%v, tweet %d (%q): %s", preprocess, i, tw.Text, diff)
			}
			// Learning evolves the vocabulary (and the lock-free snapshot) so
			// later iterations compare against a shifting BoW.
			e.Learn(tw)
		}
		if e.BoW().Additions() == 0 {
			t.Logf("p=%v: warning: BoW never adapted during the golden run", preprocess)
		}
	}
}

// TestPreprocessOffGolden pins the p=OFF extraction and learning to what
// the multi-pass extractor produced on commit ca89b3d, recorded as data in
// testdata/preprocess_off.golden: every vector over goldenCorpus (Learn
// after each extraction) and the vocabulary after 5k, 10k and all tweets.
func TestPreprocessOffGolden(t *testing.T) {
	sections := loadGoldenSections(t, preprocessOffGolden)
	tweets := goldenCorpus(t)
	if got, want := len(tweets), len(sections["vectors"]); got != want {
		t.Fatalf("corpus has %d tweets, the golden %d vectors", got, want)
	}
	e := NewExtractor(Config{Preprocess: false})
	x := make([]float64, NumFeatures)
	var bow []string
	for i := range tweets {
		e.ExtractInto(x, &tweets[i])
		if want := parseVector(t, sections["vectors"][i]); vectorDiff(want, x) != "" {
			ref := make([]float64, NumFeatures)
			e.extractLegacyInto(ref, &tweets[i])
			t.Fatalf("tweet %d (%q): golden %v, extracted %v (%s), reference now %v",
				i, tweets[i].Text, want, x, vectorDiff(want, x), ref)
		}
		e.Learn(&tweets[i])
		if n := i + 1; n == 5000 || n == 10000 || n == len(tweets) {
			words := sortedWords(e.BoW())
			bow = append(bow, fmt.Sprintf("%d %d %x", n, e.BoW().Size(), sha256.Sum256([]byte(words))))
		}
	}
	if want := sections["bow"]; strings.Join(bow, "\n") != strings.Join(want, "\n") {
		t.Fatalf("BoW evolution diverged from the golden:\n got  %q\n want %q", bow, want)
	}
}

// preprocessOffGolden was written on commit ca89b3d by the multi-pass
// extractor; do not regenerate it from this tree.
const preprocessOffGolden = "testdata/preprocess_off.golden"

// loadGoldenSections splits a golden file into its "== name" sections,
// skipping "#" header lines.
func loadGoldenSections(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string][]string)
	var name string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			name = strings.TrimPrefix(line, "== ")
		default:
			sections[name] = append(sections[name], line)
		}
	}
	return sections
}

// parseVector reads one golden vector line: NumFeatures shortest
// round-trip decimals, each parsing back to its exact Float64bits.
func parseVector(t *testing.T, line string) []float64 {
	t.Helper()
	fields := strings.Fields(line)
	if len(fields) != NumFeatures {
		t.Fatalf("golden vector %q has %d values, want %d", line, len(fields), NumFeatures)
	}
	v := make([]float64, NumFeatures)
	for i, f := range fields {
		var err error
		if v[i], err = strconv.ParseFloat(f, 64); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// sortedWords is the BoW vocabulary sorted and joined by newlines.
func sortedWords(b *AdaptiveBoW) string {
	words := b.Words()
	sort.Strings(words)
	return strings.Join(words, "\n")
}

// vectorDiff reports the first mismatching feature, or "" when the vectors
// are bit-identical.
func vectorDiff(want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("length %d vs %d", len(want), len(got))
	}
	var b strings.Builder
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			fmt.Fprintf(&b, "feature %s: reference %v, fast %v; ", Name(i), want[i], got[i])
		}
	}
	return b.String()
}
