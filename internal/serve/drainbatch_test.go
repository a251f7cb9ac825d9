package serve

import (
	"context"
	"reflect"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

// TestDrainBatchEquivalence proves the micro-batched shard drain is a
// pure amortization: a backlogged queue drained in batches of 8 must
// leave the pipeline in exactly the state per-tweet draining does. The
// server is built stalled so the whole stream is queued before the
// shard loop starts — guaranteeing the batched run actually forms
// maximal batches instead of degenerating to singles.
func TestDrainBatchEquivalence(t *testing.T) {
	tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 11, Days: 5, NormalCount: 400, AbusiveCount: 200, HatefulCount: 40,
	})
	for i := range tweets {
		if i%3 == 1 {
			tweets[i].Label = "" // unlabeled runs for the batch to coalesce
		}
	}

	run := func(drain int) *core.Pipeline {
		opts := testOptions()
		opts.Shards = 1
		opts.QueueDepth = len(tweets) + 8
		opts.Registry = metrics.NewRegistry()
		s := newServer(opts, false)
		s.shards[0].drainBatch = drain
		for i := range tweets {
			if _, ok, err := s.offer(job{tweet: tweets[i]}); err != nil || !ok {
				t.Fatalf("offer tweet %d: ok=%v err=%v", i, ok, err)
			}
		}
		for _, sh := range s.shards {
			s.wg.Add(1)
			go sh.run(&s.wg)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.Pipeline(0)
	}

	single := run(1)
	batched := run(8)
	if single.Processed() != int64(len(tweets)) || batched.Processed() != single.Processed() {
		t.Fatalf("processed %d vs %d, want %d", batched.Processed(), single.Processed(), len(tweets))
	}
	if !reflect.DeepEqual(batched.Summary(), single.Summary()) {
		t.Fatalf("summaries diverged:\nbatched: %+v\nsingle:  %+v", batched.Summary(), single.Summary())
	}
	if !reflect.DeepEqual(batched.PredictedDistribution(), single.PredictedDistribution()) {
		t.Fatalf("predicted distributions diverged:\nbatched: %v\nsingle:  %v",
			batched.PredictedDistribution(), single.PredictedDistribution())
	}
	if batched.Alerter().Raised() != single.Alerter().Raised() {
		t.Fatalf("alerts raised %d vs %d", batched.Alerter().Raised(), single.Alerter().Raised())
	}
	if bs, ss := batched.SnapshotStats(), single.SnapshotStats(); bs.Rebuilds > ss.Rebuilds {
		t.Fatalf("batched drain rebuilt snapshots more often than per-tweet drain (%d vs %d)",
			bs.Rebuilds, ss.Rebuilds)
	}
}
