package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"redhanded/internal/feature"
	"redhanded/internal/obs"
	"redhanded/internal/twitterdata"
)

// mixedStream builds a tweet stream that exercises every processing path:
// labeled tweets (train), unlabeled tweets (sample/alert), and the
// occasional unknown label string (resolves to ml.Unlabeled). Stripping
// every third label creates runs of consecutive unlabeled tweets for the
// batched path to coalesce.
func mixedStream(seed uint64, n, a, h int) []twitterdata.Tweet {
	tweets := smallDataset(seed, n, a, h)
	for i := range tweets {
		switch {
		case i%3 == 1:
			tweets[i].Label = ""
		case i%50 == 17:
			tweets[i].Label = "spam" // unknown label -> ml.Unlabeled
		}
	}
	return tweets
}

// requireSameResult compares two Results bit-for-bit: votes and
// confidences by Float64bits, verdict payloads structurally.
func requireSameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Predicted != want.Predicted {
		t.Fatalf("%s: predicted %d, want %d", tag, got.Predicted, want.Predicted)
	}
	if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		t.Fatalf("%s: confidence %v, want %v", tag, got.Confidence, want.Confidence)
	}
	if got.Alerted != want.Alerted || got.Tested != want.Tested {
		t.Fatalf("%s: alerted/tested (%v,%v), want (%v,%v)", tag, got.Alerted, got.Tested, want.Alerted, want.Tested)
	}
	if len(got.Prediction) != len(want.Prediction) {
		t.Fatalf("%s: %d vote classes, want %d", tag, len(got.Prediction), len(want.Prediction))
	}
	for c := range got.Prediction {
		if math.Float64bits(got.Prediction[c]) != math.Float64bits(want.Prediction[c]) {
			t.Fatalf("%s: class %d vote %v (bits %x), want %v (bits %x)", tag, c,
				got.Prediction[c], math.Float64bits(got.Prediction[c]),
				want.Prediction[c], math.Float64bits(want.Prediction[c]))
		}
	}
	if got.Instance.Label != want.Instance.Label || got.Instance.ID != want.Instance.ID {
		t.Fatalf("%s: instance (%d,%q), want (%d,%q)", tag,
			got.Instance.Label, got.Instance.ID, want.Instance.Label, want.Instance.ID)
	}
	for f := range got.Instance.X {
		if math.Float64bits(got.Instance.X[f]) != math.Float64bits(want.Instance.X[f]) {
			t.Fatalf("%s: feature %d = %v, want %v", tag, f, got.Instance.X[f], want.Instance.X[f])
		}
	}
	if !reflect.DeepEqual(got.Session, want.Session) {
		t.Fatalf("%s: session verdict %+v, want %+v", tag, got.Session, want.Session)
	}
	if !reflect.DeepEqual(got.Escalation, want.Escalation) {
		t.Fatalf("%s: escalation verdict %+v, want %+v", tag, got.Escalation, want.Escalation)
	}
}

// requireSameState compares the externally observable pipeline state the
// two paths must keep identical.
func requireSameState(t *testing.T, fast, locked *Pipeline) {
	t.Helper()
	if fast.Processed() != locked.Processed() {
		t.Fatalf("processed %d, want %d", fast.Processed(), locked.Processed())
	}
	if !reflect.DeepEqual(fast.Summary(), locked.Summary()) {
		t.Fatalf("summaries diverged:\nfast:   %+v\nlocked: %+v", fast.Summary(), locked.Summary())
	}
	if !reflect.DeepEqual(fast.PredictedDistribution(), locked.PredictedDistribution()) {
		t.Fatalf("predicted distributions diverged:\nfast:   %v\nlocked: %v",
			fast.PredictedDistribution(), locked.PredictedDistribution())
	}
	if !reflect.DeepEqual(fast.BoWSizeCurve(), locked.BoWSizeCurve()) {
		t.Fatalf("BoW size curves diverged")
	}
	if fast.LogOffset() != locked.LogOffset() {
		t.Fatalf("log offset %d, want %d", fast.LogOffset(), locked.LogOffset())
	}
	if fast.Alerter().Raised() != locked.Alerter().Raised() {
		t.Fatalf("alerts %d, want %d", fast.Alerter().Raised(), locked.Alerter().Raised())
	}
}

// TestProcessBatchMatchesSequential proves batching is a pure
// amortization: tweets pushed through ProcessBatch yield the same results
// and state as the one-at-a-time reference, for batch sizes that cut the
// labeled/unlabeled runs at every possible boundary.
func TestProcessBatchMatchesSequential(t *testing.T) {
	tweets := mixedStream(201, 1500, 700, 150)
	opts := DefaultOptions()
	opts.Model = ModelARF
	seq := NewPipeline(opts)
	var seqResults []Result
	for i := range tweets {
		seqResults = append(seqResults, referenceProcess(seq, &tweets[i], int64(i), true))
	}
	for _, batchSize := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch%d", batchSize), func(t *testing.T) {
			bat := NewPipeline(opts)
			batResults := processInBatches(bat, tweets, batchSize, true)
			if len(batResults) != len(seqResults) {
				t.Fatalf("%d batched results, want %d", len(batResults), len(seqResults))
			}
			for i := range seqResults {
				requireSameResult(t, fmt.Sprintf("tweet%d", i), batResults[i], seqResults[i])
			}
			requireSameState(t, bat, seq)
		})
	}
}

// processInBatches feeds tweets to p.ProcessBatch batchSize at a time,
// tweet i as a logged entry at offset i when logged is set. The results are
// copied out of the pipeline's arenas before the next call reuses them.
func processInBatches(p *Pipeline, tweets []twitterdata.Tweet, batchSize int, logged bool) []Result {
	var results []Result
	entries := make([]BatchEntry, 0, batchSize)
	for lo := 0; lo < len(tweets); lo += batchSize {
		hi := min(lo+batchSize, len(tweets))
		entries = entries[:0]
		for i := lo; i < hi; i++ {
			entries = append(entries, BatchEntry{Tweet: &tweets[i], Offset: int64(i), Logged: logged})
		}
		results = p.ProcessBatch(entries, results)
		for i := lo; i < hi; i++ {
			results[i] = detach(results[i])
		}
	}
	return results
}

// detach copies the parts of a Result that alias pipeline-owned storage,
// for a caller that keeps it past the next processing call.
func detach(res Result) Result {
	res.Instance.X = slices.Clone(res.Instance.X)
	res.Prediction = slices.Clone(res.Prediction)
	return res
}

// TestProcessBatchRunBoundaries walks the run splitter over every shape a
// batch can take — unlabeled entries before and after a labeled one,
// back-to-back labeled entries, a lone entry of either kind, an unknown
// label string (an unlabeled entry), and no entries at all — with the
// batch boundary falling inside, on, and outside each shape.
func TestProcessBatchRunBoundaries(t *testing.T) {
	const u, l, spam = "", twitterdata.LabelAbusive, "spam"
	for _, tc := range []struct {
		name   string
		labels []string
	}{
		{"uuLu", []string{u, u, l, u}},
		{"LL", []string{l, l}},
		{"L", []string{l}},
		{"u", []string{u}},
		{"empty", nil},
		{"unknown-label", []string{u, spam, l, spam}},
	} {
		for _, batchSize := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch%d", tc.name, batchSize), func(t *testing.T) {
				// The shape repeats so that it also straddles batch
				// boundaries, after a warm-up that grows a model worth
				// classifying with.
				tweets := smallDataset(208, 160, 80, 16)
				warm, tail := tweets[:200], tweets[200:]
				if len(tc.labels) == 0 {
					tail = nil
				}
				for i := range tail {
					tail[i].Label = tc.labels[i%len(tc.labels)]
				}
				seq, bat := NewPipeline(DefaultOptions()), NewPipeline(DefaultOptions())
				for i := range warm {
					referenceProcess(seq, &warm[i], 0, false)
					bat.Process(&warm[i])
				}
				if got := bat.ProcessBatch(nil, nil); len(got) != 0 {
					t.Fatalf("an empty batch produced %d results", len(got))
				}
				got := processInBatches(bat, tail, batchSize, false)
				if len(got) != len(tail) {
					t.Fatalf("%d results for %d entries", len(got), len(tail))
				}
				for i := range got {
					want := referenceProcess(seq, &tail[i], 0, false)
					requireSameResult(t, fmt.Sprintf("tweet%d", i), got[i], want)
					if wantTested := tail[i].Label == l; got[i].Tested != wantTested {
						t.Fatalf("tweet%d (label %q): tested = %v", i, tail[i].Label, got[i].Tested)
					}
				}
				requireSameState(t, bat, seq)
			})
		}
	}
}

// TestProcessAllocsPerTweet holds Process — a batch of one over stack
// scratch — to zero allocations per tweet in steady state: a warm model,
// then 64 unlabeled tweets, all posted at the stream's latest instant so
// that no user idles out, cycled until every text has been sighted at least
// twice (so the extraction cache holds it), every user is resident under
// its screen name, and the sampler reservoir has been offered at least 20×
// its capacity, so that its clone-on-acceptance is rare (about 0.3 mallocs
// per tweet here, which AllocsPerRun truncates). The normalized vector and
// the votes live in the pipeline's arenas; the parent commit allocated both
// per tweet.
func TestProcessAllocsPerTweet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tweets := mixedStream(209, 1500, 700, 150)
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(tweets)
	latest := tweets[0]
	for _, tw := range tweets {
		if tw.PostedAt().After(latest.PostedAt()) {
			latest = tw
		}
	}
	cycle := tweets[:64]
	for i := range cycle {
		cycle[i].Label = ""
		cycle[i].CreatedAt = latest.CreatedAt
	}
	for p.Sampler().Offered() < 20*int64(DefaultSamplerConfig(0).Capacity) {
		p.ProcessAll(cycle)
	}
	i := 0
	got := testing.AllocsPerRun(4*len(cycle), func() {
		p.Process(&cycle[i%len(cycle)])
		i++
	})
	if got != 0 {
		t.Fatalf("Process allocates %.0f per tweet in steady state, want 0", got)
	}
}

// TestTraceStagesIndependentOfBatching pins a tweet's stage attribution:
// the same tweet records the same set of stages processed alone and in
// the middle of a batch. A cache hit's normalizer fold is charged to
// extract, a labeled entry's record + train to classify, and a snapshot
// rebuild to the compile stage of the labeled entry that caused it.
func TestTraceStagesIndependentOfBatching(t *testing.T) {
	warm := smallDataset(210, 300, 150, 30)
	tail := smallDataset(211, 6, 3, 1)
	for i := range tail {
		tail[i].Label = ""
	}
	hit, labeled := 1, 3
	tail[hit].Text = tail[0].Text // retweets: extraction-cache hits
	tail[labeled].Text = tail[0].Text
	tail[labeled].Label = twitterdata.LabelAbusive
	// The cache admits a text on its second sighting: sight tail[0]'s once
	// before the run, so tail[0] admits and both retweets hit.
	prime := tail[0]

	// stages runs tail through a warmed pipeline in batches of batchSize
	// and returns, per tweet, which stages recorded time.
	stages := func(batchSize int) [][obs.NumStages]bool {
		p := NewPipeline(DefaultOptions())
		p.ProcessAll(warm)
		p.Extractor().ExtractCachedInto(make([]float64, feature.NumFeatures), &prime)
		hitsBefore := p.Extractor().CacheStats().Hits
		tracer := obs.New(obs.Config{})
		out := make([][obs.NumStages]bool, len(tail))
		for lo := 0; lo < len(tail); lo += batchSize {
			var entries []BatchEntry
			for i := lo; i < min(lo+batchSize, len(tail)); i++ {
				sp := tracer.Begin(0)
				sp.EndStage() // no queue wait in this test
				entries = append(entries, BatchEntry{Tweet: &tail[i], Span: sp})
			}
			p.ProcessBatch(entries, nil)
			for k, e := range entries {
				for s := obs.Stage(0); s < obs.NumStages; s++ {
					out[lo+k][s] = e.Span.StageDur(s) > 0
				}
				e.Span.Finish()
			}
		}
		if hits := p.Extractor().CacheStats().Hits - hitsBefore; hits != 2 {
			t.Fatalf("%d extraction-cache hits, want the 2 retweets", hits)
		}
		return out
	}

	alone, batched := stages(1), stages(len(tail))
	for i := range tail {
		if alone[i] != batched[i] {
			t.Errorf("tweet %d: stages alone %v, mid-batch %v", i, alone[i], batched[i])
		}
	}
	for _, got := range [][][obs.NumStages]bool{alone, batched} {
		for _, i := range []int{hit, labeled} {
			if h := got[i]; !h[obs.StageCache] || !h[obs.StageExtract] {
				t.Errorf("cache hit %d: cache=%v extract=%v, want both (lookup, then the normalizer fold)", i, h[obs.StageCache], h[obs.StageExtract])
			}
		}
		if l := got[labeled]; !l[obs.StageClassify] || !l[obs.StageCompile] {
			t.Errorf("labeled entry: classify=%v compile=%v, want both", l[obs.StageClassify], l[obs.StageCompile])
		}
		for i := range tail {
			if i != labeled && got[i][obs.StageCompile] {
				t.Errorf("tweet %d paid for a compile it did not cause", i)
			}
		}
	}
}

// TestSnapshotStalenessBound pins the publication rule: every Process
// call leaves the published snapshot caught up with the live model
// (age 0), so a train step is visible to lock-free classification within
// the same call — the staleness bound of one micro-batch.
func TestSnapshotStalenessBound(t *testing.T) {
	opts := DefaultOptions()
	opts.Model = ModelARF
	p := NewPipeline(opts)
	tweets := smallDataset(203, 300, 150, 30)
	for i := range tweets {
		p.Process(&tweets[i])
		if st := p.SnapshotStats(); st.Age != 0 {
			t.Fatalf("after tweet %d the snapshot is %d mutations stale (epoch %d, model %d)",
				i, st.Age, st.Epoch, st.ModelEpoch)
		}
	}
	st := p.SnapshotStats()
	if st.Rebuilds < 2 {
		t.Fatalf("labeled traffic should force rebuilds: %+v", st)
	}
	// Incremental rebuild: counter-based bagging leaves some member trees
	// untouched on most train steps, so total trees re-flattened must be
	// well below rebuilds × ensemble size.
	if st.Trees > 1 && st.TreesRebuilt >= st.Rebuilds*int64(st.Trees) {
		t.Fatalf("every rebuild re-flattened all %d trees (%d rebuilds, %d trees rebuilt): O(changed trees) lost",
			st.Trees, st.Rebuilds, st.TreesRebuilt)
	}
}

// TestSnapshotRestoreInvalidates proves a checkpoint restore republishes:
// the model is replaced wholesale, so a stale snapshot would classify
// against the pre-restore model forever.
func TestSnapshotRestoreInvalidates(t *testing.T) {
	opts := DefaultOptions()
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(204, 400, 200, 40))
	before := p.SnapshotStats()

	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	q := NewPipeline(opts)
	if err := q.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	st := q.SnapshotStats()
	if st.Age != 0 {
		t.Fatalf("restored pipeline snapshot is %d mutations stale", st.Age)
	}
	if st.Epoch == 0 && before.Epoch != 0 {
		t.Fatalf("restore did not republish (epoch 0 after restoring epoch-%d state)", before.Epoch)
	}
	// The two pipelines must now classify identically.
	probe := smallDataset(205, 50, 25, 5)
	for i := range probe {
		probe[i].Label = ""
		requireSameResult(t, fmt.Sprintf("probe%d", i), q.Process(&probe[i]), p.Process(&probe[i]))
	}
}

// TestFastClassifyRacingTraining races lock-free snapshot readers
// against the processing goroutine while ARF drift replaces member
// trees. Under -race this proves the published snapshot shares no
// mutable memory with the live model: readers re-evaluate a probe on
// whatever snapshot is current while the writer trains through a label
// flip. Reader classifications on one loaded snapshot must be
// self-consistent (two evaluations bit-identical), which fails if a
// published snapshot ever exposes a half-replaced ensemble member.
func TestFastClassifyRacingTraining(t *testing.T) {
	opts := DefaultOptions()
	opts.Model = ModelARF
	p := NewPipeline(opts)
	warm := smallDataset(206, 400, 200, 40)
	p.ProcessAll(warm)

	probe := detach(p.Process(&warm[0])).Instance.X

	var stop atomic.Bool
	var checks atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, b, scratch []float64
			for !stop.Load() {
				snap := p.snapshot.Load()
				if len(a) < snap.NumClasses() {
					a = make([]float64, snap.NumClasses())
					b = make([]float64, snap.NumClasses())
					scratch = make([]float64, snap.ScratchLen())
				}
				snap.PredictInto(a[:snap.NumClasses()], scratch, probe)
				snap.PredictInto(b[:snap.NumClasses()], scratch, probe)
				for c := range a {
					if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
						t.Errorf("snapshot votes changed between evaluations: class %d %v vs %v", c, a[c], b[c])
						stop.Store(true)
						return
					}
				}
				checks.Add(1)
			}
		}()
	}

	// Drive drift: same geometry generator, labels flipped by re-tagging
	// aggressive traffic as normal and vice versa.
	churn := smallDataset(207, 300, 600, 120)
	for i := range churn {
		switch churn[i].Label {
		case twitterdata.LabelNormal:
			churn[i].Label = twitterdata.LabelAbusive
		case twitterdata.LabelAbusive, twitterdata.LabelHateful:
			churn[i].Label = twitterdata.LabelNormal
		}
		p.Process(&churn[i])
	}
	stop.Store(true)
	wg.Wait()
	if checks.Load() == 0 {
		t.Fatalf("readers never observed a snapshot")
	}
}

// FuzzProcessBatchEquivalence fuzzes the run-splitting logic: arbitrary
// label patterns and batch sizes must never make ProcessBatch diverge
// from the one-at-a-time reference.
func FuzzProcessBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(5), uint64(0x35))
	f.Add(uint64(7), uint(1), uint64(0xff))
	f.Add(uint64(42), uint(31), uint64(0x00))
	f.Fuzz(func(t *testing.T, seed uint64, batchSize uint, labelMask uint64) {
		tweets := smallDataset(seed%1024, 60, 30, 10)
		for i := range tweets {
			if labelMask>>(uint(i)%64)&1 == 0 {
				tweets[i].Label = ""
			}
		}
		seq, bat := NewPipeline(DefaultOptions()), NewPipeline(DefaultOptions())
		batResults := processInBatches(bat, tweets, int(batchSize%64)+1, false)
		for i := range tweets {
			requireSameResult(t, fmt.Sprintf("tweet%d", i), batResults[i], referenceProcess(seq, &tweets[i], 0, false))
		}
		requireSameState(t, bat, seq)
	})
}

// BenchmarkProcessAllBatchedVsLoop compares the batched ProcessAll path
// against the per-tweet Process loop it replaced (the satellite
// benchmark): same unlabeled-heavy workload, same pipeline options.
func BenchmarkProcessAllBatchedVsLoop(b *testing.B) {
	tweets := mixedStream(300, 4000, 2000, 400)
	for i := range tweets {
		tweets[i].Label = "" // steady-state serving traffic is unlabeled
	}
	warm := smallDataset(301, 1000, 500, 100)
	bench := func(b *testing.B, run func(p *Pipeline, tweets []twitterdata.Tweet)) {
		p := NewPipeline(DefaultOptions())
		p.ProcessAll(warm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(p, tweets)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tweets)), "ns/tweet")
	}
	b.Run("loop", func(b *testing.B) {
		bench(b, func(p *Pipeline, tweets []twitterdata.Tweet) {
			for i := range tweets {
				p.Process(&tweets[i])
			}
		})
	})
	b.Run("batched", func(b *testing.B) {
		bench(b, func(p *Pipeline, tweets []twitterdata.Tweet) {
			p.ProcessAll(tweets)
		})
	})
}

// TestLabeledProcessAllocs holds a labeled Process whose train step does
// not split to at most 2 allocations, both of them the snapshot it
// re-publishes: the header (one object) and its table of chunk indices.
// The train step allocates nothing (stream's TestTrainStepZeroAlloc), and
// the chunk copy and the re-frozen leaf land in arrays the tree owns. The grace period keeps the tree from
// ever attempting a split; the stream is warmed like
// TestProcessAllocsPerTweet's, with 64 labeled tweets cycled.
func TestLabeledProcessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	opts := DefaultOptions()
	opts.HT.GracePeriod = 1 << 30
	tweets := mixedStream(212, 1500, 700, 150)
	p := NewPipeline(opts)
	p.ProcessAll(tweets)
	latest := tweets[0]
	for _, tw := range tweets {
		if tw.PostedAt().After(latest.PostedAt()) {
			latest = tw
		}
	}
	var cycle []twitterdata.Tweet
	for _, tw := range tweets {
		if len(cycle) < 64 && p.labelOf(&tw) >= 0 {
			tw.CreatedAt = latest.CreatedAt
			cycle = append(cycle, tw)
		}
	}
	for r := 0; r < 8; r++ {
		p.ProcessAll(cycle)
	}
	i := 0
	got := testing.AllocsPerRun(4*len(cycle), func() {
		p.Process(&cycle[i%len(cycle)])
		i++
	})
	if got > 2 {
		t.Fatalf("a labeled Process allocates %.0f, want <= 2", got)
	}
}
