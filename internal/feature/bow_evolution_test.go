package feature

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"redhanded/internal/twitterdata"
)

var updateBoWGolden = flag.Bool("update-bow-golden", false, "rewrite testdata/bow_evolution.golden.json from this build's Extractor.Learn")

// bowCheckpoint is the observable BoW state after a number of labeled
// tweets: a digest of the sorted vocabulary plus the evolution counters.
type bowCheckpoint struct {
	Labeled   int    `json:"labeled"`
	Size      int    `json:"size"`
	Additions int    `json:"additions"`
	Removals  int    `json:"removals"`
	WordsSHA  string `json:"words_sha256"`
}

// TestBoWEvolutionGolden pins the training path (Extractor.Learn: scan,
// per-tweet dedupe, rolling tables, enhancement rounds) to the vocabulary
// evolution recorded from the legacy Clean+Tokenize implementation: the
// TestGoldenEquivalence corpus cycled to 20k labeled tweets, and the same
// corpus with a concept shift at tweet 5000 so learned words are also
// evicted.
func TestBoWEvolutionGolden(t *testing.T) {
	got := map[string][]bowCheckpoint{}
	for name, shiftAt := range map[string]int{"golden_corpus": 0, "shifted_corpus": 5000} {
		tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
			Seed: 7, Days: 10, NormalCount: 6300, AbusiveCount: 3200, HatefulCount: 1200, ShiftAt: shiftAt,
		})
		e := NewExtractor(DefaultConfig())
		for n := 1; n <= 20000; n++ {
			e.Learn(&tweets[(n-1)%len(tweets)])
			if n == 5000 || n == 10000 || n == 20000 {
				words := e.BoW().Words()
				sort.Strings(words)
				sum := sha256.Sum256([]byte(strings.Join(words, "\n")))
				got[name] = append(got[name], bowCheckpoint{
					Labeled: n, Size: len(words), Additions: e.BoW().Additions(),
					Removals: e.BoW().Removals(), WordsSHA: hex.EncodeToString(sum[:]),
				})
			}
		}
	}
	const path = "testdata/bow_evolution.golden.json"
	if *updateBoWGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]bowCheckpoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BoW evolution diverged from the golden:\n got  %+v\n want %+v", got, want)
	}
}
