package feature

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"redhanded/internal/twitterdata"
)

// decodedBoW is a BoW checkpoint decoded for comparison. gob writes maps in
// iteration order, so two checkpoints of one state need not share their
// bytes; decoded, with the vocabulary sorted, they are equal.
func decodedBoW(t *testing.T, b *AdaptiveBoW) bowState {
	t.Helper()
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var st bowState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sort.Strings(st.Words)
	return st
}

// TestLearnScanMatchesLearn: a labeled corpus learned through the scans
// ExtractAndKeepScan keeps grows the same vocabulary, counters and rolling
// tables as the same corpus learned through Learn, which scans each text
// itself, under both tokenization specs; the kept-scan extraction yields
// ExtractInto's vectors; and a frozen BoW keeps no scan.
func TestLearnScanMatchesLearn(t *testing.T) {
	tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 11, Days: 10, NormalCount: 6300, AbusiveCount: 3200, HatefulCount: 1200, ShiftAt: 5000,
	})
	for _, preprocess := range []bool{true, false} {
		t.Run(fmt.Sprintf("preprocess=%v", preprocess), func(t *testing.T) {
			cfg := Config{Preprocess: preprocess, BoW: DefaultBoWConfig(), CacheEntries: 1024}
			kept, rescanned := NewExtractor(cfg), NewExtractor(cfg)
			var got, want Vec
			for n := 1; n <= 10000; n++ {
				tw := &tweets[(n-1)%len(tweets)]
				key, _ := kept.Lookup(got[:], tw)
				sc := kept.ExtractAndKeepScan(&got, tw, key)
				if sc == nil {
					t.Fatalf("tweet %d: an adaptive BoW kept no scan", n)
				}
				rescanned.ExtractInto(want[:], tw)
				if got != want {
					t.Fatalf("tweet %d: kept-scan extraction\n  got  %v\n  want %v", n, got, want)
				}
				kept.LearnScan(tw, sc)
				rescanned.Learn(tw)
				if n != 5000 && n != 10000 {
					continue
				}
				gw, ww := kept.BoW().Words(), rescanned.BoW().Words()
				slices.Sort(gw)
				slices.Sort(ww)
				if !slices.Equal(gw, ww) {
					t.Fatalf("after %d tweets: %d words through kept scans, %d through Learn", n, len(gw), len(ww))
				}
				if ga, wa, gr, wr := kept.BoW().Additions(), rescanned.BoW().Additions(), kept.BoW().Removals(), rescanned.BoW().Removals(); ga != wa || gr != wr {
					t.Fatalf("after %d tweets: additions %d/%d, removals %d/%d", n, ga, wa, gr, wr)
				}
				if !reflect.DeepEqual(decodedBoW(t, kept.BoW()), decodedBoW(t, rescanned.BoW())) {
					t.Fatalf("after %d tweets: the checkpoints differ", n)
				}
				if n == 10000 && kept.BoW().Additions() == 0 {
					t.Fatalf("the corpus added no word: the comparison is vacuous")
				}
			}

			cfg.BoW.Frozen = true
			frozen := NewExtractor(cfg)
			key, _ := frozen.Lookup(got[:], &tweets[0])
			if sc := frozen.ExtractAndKeepScan(&got, &tweets[0], key); sc != nil {
				t.Fatalf("a frozen BoW kept a scan")
			}
		})
	}
}

// TestPruneSurvivorsIndependentOfOrder: once a rolling table outgrows
// MaxVocab, which words survive depends on the counts alone — not on the
// order the words arrived in, nor on whether the table came back from a
// checkpoint. Half the words below the cut tie, so an order-dependent
// prune keeps a different half on almost every run.
func TestPruneSurvivorsIndependentOfOrder(t *testing.T) {
	words := make([]string, 1000)
	twice := map[string]bool{} // three words in ten are seen twice
	for i := range words {
		words[i] = fmt.Sprintf("w%04d", (i*7919)%1000)
		twice[words[i]] = i%10 < 3
	}
	build := func(order []string) *wordTable {
		tb := newWordTable()
		for _, w := range order {
			tb.begin()
			tb.bump([]byte(w))
			if twice[w] {
				tb.begin()
				tb.bump([]byte(w))
			}
		}
		tb.decay(0.996)
		return tb
	}
	survivors := func(tb *wordTable) []string {
		tb.prune(500)
		out := make([]string, 0, len(tb.counts))
		for w := range tb.counts {
			out = append(out, w)
		}
		sort.Strings(out)
		return out
	}

	forward := build(words)
	restored := newWordTable()
	restored.setFlat(forward.flat())
	restored.tweets = forward.tweets
	reversed := slices.Clone(words)
	slices.Reverse(reversed)
	want := survivors(forward)
	for name, tb := range map[string]*wordTable{"reverse insertion order": build(reversed), "checkpoint round trip": restored} {
		if got := survivors(tb); !slices.Equal(got, want) {
			t.Fatalf("%s: %d survivors differ from the forward-built table's", name, len(got))
		}
	}

	// The 300 words seen twice, then the 200 lowest of the 700 tied ones.
	var expect, once []string
	for _, w := range words {
		if twice[w] {
			expect = append(expect, w)
		} else {
			once = append(once, w)
		}
	}
	sort.Strings(once)
	expect = append(expect, once[:200]...)
	sort.Strings(expect)
	if !slices.Equal(want, expect) {
		t.Fatalf("prune kept the wrong words: want the twice-seen ones and the lowest tied ones")
	}
}
