package engine

import (
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/twitterdata"
)

func testDataset(seed uint64, n, a, h int) []twitterdata.Tweet {
	return twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: seed, Days: 10, NormalCount: n, AbusiveCount: a, HatefulCount: h,
	})
}

func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Scheme = core.TwoClass
	return opts
}

func TestSliceSource(t *testing.T) {
	data := testDataset(1, 5, 3, 2)
	src := NewSliceSource(data)
	count := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("slice source yielded %d, want 10", count)
	}
}

// unlabeledTweets draws n tweets from the endless unlabeled generator.
func unlabeledTweets(seed uint64, n int) []twitterdata.Tweet {
	src := twitterdata.NewUnlabeledSource(seed, 10)
	out := make([]twitterdata.Tweet, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

func TestMixedSourceInterleavesAll(t *testing.T) {
	labeled := testDataset(3, 50, 25, 5)
	src := NewMixedSource(labeled, twitterdata.NewUnlabeledSource(4, 10), 500)
	total, lab := 0, 0
	for {
		tw, ok := src.Next()
		if !ok {
			break
		}
		total++
		if tw.IsLabeled() {
			lab++
		}
	}
	if total != 500 {
		t.Fatalf("mixed source total = %d, want 500", total)
	}
	if lab != len(labeled) {
		t.Fatalf("mixed source labeled = %d, want %d", lab, len(labeled))
	}
}

func TestReaderSource(t *testing.T) {
	data := testDataset(30, 20, 10, 5)
	var buf strings.Builder
	w := twitterdata.NewWriter(&buf)
	for i := range data {
		if err := w.Write(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Inject malformed lines between valid ones.
	payload := "{broken\n" + buf.String() + "{also broken\n"
	src := twitterdata.NewReader(strings.NewReader(payload))
	stats := RunSequential(core.NewPipeline(testOptions()), src)
	if n := stats.Processed; n != int64(len(data)) {
		t.Fatalf("reader source yielded %d, want %d", n, len(data))
	}
	if src.Malformed() != 2 || src.Err() != nil {
		t.Fatalf("malformed count = %d (err %v), want 2", src.Malformed(), src.Err())
	}
}

func TestRunSequentialMatchesProcessAll(t *testing.T) {
	data := testDataset(5, 1500, 700, 150)
	p1 := core.NewPipeline(testOptions())
	p1.ProcessAll(data)
	p2 := core.NewPipeline(testOptions())
	stats := RunSequential(p2, NewSliceSource(data))
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if p1.Summary() != p2.Summary() {
		t.Fatalf("sequential engine diverged from pipeline:\n%+v\n%+v", p1.Summary(), p2.Summary())
	}
}

func TestMicroBatchSingleClosesOnSequential(t *testing.T) {
	data := testDataset(6, 12000, 6000, 1200)
	seq := core.NewPipeline(testOptions())
	RunSequential(seq, NewSliceSource(data))
	mb := core.NewPipeline(testOptions())
	stats, err := RunMicroBatch(mb, NewSliceSource(data), SparkSingleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	fSeq, fMB := seq.Summary().F1, mb.Summary().F1
	// Micro-batch semantics (batch-start model for predictions, one split
	// round per merge) lag per-instance prequential early in the stream,
	// but quality must agree once the stream is long enough.
	if math.Abs(fSeq-fMB) > 0.04 {
		t.Fatalf("micro-batch F1 %v too far from sequential %v", fMB, fSeq)
	}
}

func TestMicroBatchParallelMatchesSingle(t *testing.T) {
	data := testDataset(7, 6000, 3000, 600)
	single := core.NewPipeline(testOptions())
	if _, err := RunMicroBatch(single, NewSliceSource(data), SparkSingleConfig()); err != nil {
		t.Fatal(err)
	}
	parallel := core.NewPipeline(testOptions())
	if _, err := RunMicroBatch(parallel, NewSliceSource(data), SparkLocalConfig(8)); err != nil {
		t.Fatal(err)
	}
	fS, fP := single.Summary().F1, parallel.Summary().F1
	if math.Abs(fS-fP) > 0.03 {
		t.Fatalf("parallel F1 %v too far from single %v", fP, fS)
	}
	if parallel.Summary().Instances != single.Summary().Instances {
		t.Fatalf("instance counts differ: %d vs %d",
			parallel.Summary().Instances, single.Summary().Instances)
	}
}

func TestMicroBatchDeterministicAcrossRuns(t *testing.T) {
	data := testDataset(8, 1000, 500, 100)
	run := func() float64 {
		p := core.NewPipeline(testOptions())
		if _, err := RunMicroBatch(p, NewSliceSource(data), SparkLocalConfig(4)); err != nil {
			t.Fatal(err)
		}
		return p.Summary().F1
	}
	if run() != run() {
		t.Fatalf("parallel micro-batch engine not deterministic")
	}
}

func TestMicroBatchSLR(t *testing.T) {
	data := testDataset(9, 4000, 2000, 400)
	opts := testOptions()
	opts.Model = core.ModelSLR
	p := core.NewPipeline(opts)
	if _, err := RunMicroBatch(p, NewSliceSource(data), SparkLocalConfig(4)); err != nil {
		t.Fatal(err)
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("micro-batch SLR F1 = %v, want >= 0.75", f1)
	}
}

func TestMicroBatchARF(t *testing.T) {
	// The forest takes the per-batch broadcast round trip like every other
	// model and trains through its per-member accumulators.
	data := testDataset(10, 3000, 1500, 300)
	opts := testOptions()
	opts.Model = core.ModelARF
	opts.ARF.EnsembleSize = 3
	p := core.NewPipeline(opts)
	if _, err := RunMicroBatch(p, NewSliceSource(data), SparkLocalConfig(4)); err != nil {
		t.Fatal(err)
	}
	if f1 := p.Summary().F1; f1 < 0.7 {
		t.Fatalf("micro-batch ARF F1 = %v, want >= 0.7", f1)
	}
}

func TestMicroBatchEmptySource(t *testing.T) {
	p := core.NewPipeline(testOptions())
	stats, err := RunMicroBatch(p, NewSliceSource(nil), SparkSingleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != 0 || stats.Batches != 0 {
		t.Fatalf("empty source stats: %+v", stats)
	}
}

func TestStatsThroughput(t *testing.T) {
	s := Stats{Processed: 1000, Duration: 2e9}
	if tp := s.Throughput(); math.Abs(tp-500) > 1e-9 {
		t.Fatalf("throughput = %v, want 500", tp)
	}
	if (Stats{}).Throughput() != 0 {
		t.Fatalf("zero-duration throughput should be 0")
	}
}

// TestMicroBatchReadersDuringRun reads the pipeline the way the serving
// layer does while RunMicroBatch trains it: every reader takes the
// pipeline's lock, so under -race nothing the run writes outside that lock
// may be visible to them.
func TestMicroBatchReadersDuringRun(t *testing.T) {
	opts := testOptions()
	opts.Model = core.ModelARF
	opts.ARF.EnsembleSize = 3
	p := core.NewPipeline(opts)
	data := testDataset(11, 1400, 500, 100)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			p.SnapshotStats()
			p.Counts()
			if err := p.Checkpoint(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	_, err := RunMicroBatch(p, NewSliceSource(data), MicroBatchConfig{BatchSize: 200, Workers: 2})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Processed(); got != int64(len(data)) {
		t.Fatalf("processed %d tweets, want %d", got, len(data))
	}
}
