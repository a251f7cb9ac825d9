package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"redhanded/internal/metrics"
)

// Shard producers finishing spans while snapshot/slow readers poll — the
// exact contention profile of /v1/trace scrapes against a loaded server.
// Run with -race; the word-encoded rings must stay warning-free. Span i of
// shard s is "s<s>-<i>" with i+1 ns in the merge stage, so an entry mixing
// two spans' words fails wholeSpan.
func TestConcurrentProducersAndReaders(t *testing.T) {
	const shards = 4
	tr := New(Config{
		Shards:     shards,
		SlowBudget: time.Nanosecond,
		Registry:   metrics.NewRegistry(),
		ringSize:   32, // small ring to force constant wraparound
		slowCap:    8,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				sp := tr.Begin(shard)
				sp.SetID(fmt.Sprintf("s%d-%d", shard, i))
				sp.Add(StageMerge, time.Duration(i+1))
				sp.BeginStage(StageQueue)
				sp.BeginStage(StageExtract)
				sp.BeginStage(StageClassify)
				sp.AddExclusive(StageEmit, time.Microsecond)
				sp.EndStage()
				sp.Finish()
			}
		}(s)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum := tr.Snapshot(16)
				for _, e := range sum.Recent {
					if !wholeSpan(e) {
						t.Errorf("torn entry surfaced: %+v", e)
						return
					}
				}
				for _, e := range tr.SlowTraces().Traces {
					if !wholeSpan(e) {
						t.Errorf("torn slow entry surfaced: %+v", e)
						return
					}
				}
			}
		}()
	}
	// Poll until every producer's spans have landed, then stop the readers.
	for tr.Spans() < int64(shards*2000) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := tr.Spans(); got != shards*2000 {
		t.Fatalf("Spans = %d, want %d", got, shards*2000)
	}
	if tr.SlowSpans() == 0 {
		t.Fatal("1ns budget should have captured slow spans")
	}
}

// wholeSpan reports whether a trace's ID, shard and merge-stage nanos all
// name the same span of TestConcurrentProducersAndReaders.
func wholeSpan(tr Trace) bool {
	var shard, i int
	if _, err := fmt.Sscanf(tr.ID, "s%d-%d", &shard, &i); err != nil || shard != tr.Shard {
		return false
	}
	for _, st := range tr.Stages {
		if st.Stage == StageMerge.String() {
			return st.Nanos == int64(i+1)
		}
	}
	return false
}
