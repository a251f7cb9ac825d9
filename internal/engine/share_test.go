package engine

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/twitterdata"
)

// TestMicroBatchMatchesSingleExecutorCluster is the invariant one share
// kernel buys: the local engine with k partitions and a cluster of one
// executor running k tasks are the same computation — one share spanning the
// whole batch, merged once — so every observable agrees bit for bit,
// including the normalizer's Welford and P² statistics, which only holds
// when both fold the partition deltas in the same association.
func TestMicroBatchMatchesSingleExecutorCluster(t *testing.T) {
	data := NewMixedSource(testDataset(50, 180, 90, 18), twitterdata.NewUnlabeledSource(51, 10), 420)
	var tweets []twitterdata.Tweet
	for tw, ok := data.Next(); ok; tw, ok = data.Next() {
		tweets = append(tweets, tw)
	}
	addrs := startCluster(t, 1, 2)
	for _, kind := range []core.ModelKind{core.ModelHT, core.ModelARF, core.ModelSLR} {
		for _, mode := range []norm.Mode{norm.MinMax, norm.MinMaxRobust} {
			for _, b := range []int{1, 7, 500} {
				for _, k := range []int{1, 3} {
					t.Run(fmt.Sprintf("%v/%v/b=%d/k=%d", kind, mode, b, k), func(t *testing.T) {
						tweets := tweets
						if b == 1 {
							tweets = tweets[:150] // one TCP round trip per tweet
						}
						opts := core.DefaultOptions()
						opts.Model = kind
						opts.Normalization = mode
						opts.ARF.EnsembleSize = 3
						local, clustered := core.NewPipeline(opts), core.NewPipeline(opts)
						lStats, err := RunMicroBatch(local, NewSliceSource(tweets), MicroBatchConfig{BatchSize: b, Workers: k})
						if err != nil {
							t.Fatal(err)
						}
						cStats, err := RunCluster(clustered, NewSliceSource(tweets), ClusterConfig{
							Executors: addrs, BatchSize: b, TasksPerExecutor: k,
						})
						if err != nil {
							t.Fatal(err)
						}
						got, want := engineFinal(t, local, lStats, true), engineFinal(t, clustered, cStats, true)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("engines disagree\nlocal:   %q\ncluster: %q", got, want)
						}
					})
				}
			}
		}
	}
}

// TestShareKernelEdges pins computeShare's behavior at its boundaries.
func TestShareKernelEdges(t *testing.T) {
	labeled := testDataset(52, 6, 3, 1)
	unknown := append([]twitterdata.Tweet(nil), labeled...)
	unknown[0].Label = "spam"
	cases := []struct {
		name           string
		tweets         []twitterdata.Tweet
		parts, workers int
		wantAccs       int
		wantTrained    int64 // labeled instances across the accumulators
	}{
		{"empty share", nil, 4, 2, 0, 0},
		{"more partitions than tweets", labeled, 64, 4, len(labeled), int64(len(labeled))},
		{"one worker", labeled, 3, 1, 3, int64(len(labeled))},
		{"non-positive partitions", labeled, 0, 2, 1, int64(len(labeled))},
		{"unknown label is unlabeled", unknown, 2, 2, 2, int64(len(labeled)) - 1},
		{"unlabeled only", unlabeledTweets(53, 9), 2, 2, 2, 0},
	}
	p := core.NewPipeline(testOptions())
	p.ProcessAll(testDataset(54, 200, 100, 20))
	base := p.Normalizer().Stats
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := base.Count()
			out := computeShare(p.Extractor(), base, p.Normalizer().Mode, p.Options().Scheme,
				p.Model(), p.Model().CompileSnapshot(nil), tc.tweets, tc.parts, tc.workers)
			if base.Count() != before {
				t.Fatalf("kernel folded into the base statistics: %d -> %d", before, base.Count())
			}
			if out.lo != 0 || out.stats.Count() != int64(len(tc.tweets)) {
				t.Fatalf("lo %d, statistics delta over %d tweets, want 0 and %d", out.lo, out.stats.Count(), len(tc.tweets))
			}
			if len(out.accs) != tc.wantAccs {
				t.Fatalf("%d accumulators, want %d", len(out.accs), tc.wantAccs)
			}
			var trained int64
			for _, acc := range out.accs {
				trained += acc.Count()
			}
			if trained != tc.wantTrained {
				t.Fatalf("accumulators hold %d instances, want %d", trained, tc.wantTrained)
			}
			if len(out.classified) != len(tc.tweets) {
				t.Fatalf("%d outcomes for %d tweets", len(out.classified), len(tc.tweets))
			}
			for i, c := range out.classified {
				want := ml.Unlabeled
				if tc.tweets[i].IsLabeled() {
					want = p.Options().Scheme.LabelIndex(tc.tweets[i].Label)
				}
				if c.Idx != i || c.Label != want || c.Pred < 0 || c.Pred >= p.Classes().Len() {
					t.Fatalf("outcome %d = %+v, want Idx %d Label %d and a class prediction", i, c, i, want)
				}
			}
		})
	}
}

// TestShareRunParts checks every partition runs exactly once on no more
// goroutines than asked for; under -race it also covers the index hand-out.
func TestShareRunParts(t *testing.T) {
	for _, tc := range []struct{ parts, workers int }{{0, 4}, {1, 4}, {5, 1}, {5, 0}, {64, 3}, {3, 64}} {
		ran := make([]atomic.Int32, tc.parts)
		var active, peak atomic.Int32
		runParts(tc.parts, tc.workers, func(part int) {
			n := active.Add(1)
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
			ran[part].Add(1)
			active.Add(-1)
		})
		for part := range ran {
			if n := ran[part].Load(); n != 1 {
				t.Errorf("parts=%d workers=%d: partition %d ran %d times", tc.parts, tc.workers, part, n)
			}
		}
		if limit := int32(max(tc.workers, 1)); peak.Load() > limit {
			t.Errorf("parts=%d workers=%d: %d partitions ran at once", tc.parts, tc.workers, peak.Load())
		}
	}
}
