package stream

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"redhanded/internal/ml"
)

// Scaling guards for the snapshot compile. They use nothing but the
// package's stable surface, so the same file measures any commit.

// grownTree trains a majority-class tree (the serving default) until it
// has at least `nodes` nodes, then freezes its structure so every further
// train step is a non-splitting one. It returns the tree and a stream to
// keep training it with.
func grownTree(tb testing.TB, nodes int) (*HoeffdingTree, []ml.Instance) {
	tb.Helper()
	ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 20, MaxDepth: 64})
	data := gaussianStream(20000, 3, 8, 0.7, 77)
	for i := 0; ht.NumNodes() < nodes; i++ {
		if i == 400*len(data) {
			tb.Fatalf("tree stuck at %d nodes, want %d", ht.NumNodes(), nodes)
		}
		ht.Train(data[i%len(data)])
	}
	ht.cfg.GracePeriod = math.MaxInt32
	return ht, data
}

// BenchmarkCompileAfterTrain is the scaling guard for the snapshot
// compile: one non-splitting Train followed by CompileSnapshot(prev) must
// not cost in proportion to the size of the tree.
func BenchmarkCompileAfterTrain(b *testing.B) {
	for _, nodes := range []int{100, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			ht, data := grownTree(b, nodes)
			snap := ht.CompileSnapshot(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ht.Train(data[i%len(data)])
				snap = ht.CompileSnapshot(snap)
			}
		})
	}
}

// compileAfterTrainCost returns the time and the bytes allocated by one
// CompileSnapshot(prev) after one non-splitting Train, the Train itself
// excluded from both. The time is the fastest of the rounds: on a shared
// box the same compile reads anywhere between 150 ns and 2 µs depending
// on what the neighbours do to the cache, and only the floor is a
// property of the code. The bytes are the mean, taken in rounds of their
// own because reading MemStats stops the world and empties the
// allocator's caches.
func compileAfterTrainCost(tb testing.TB, nodes, rounds int) (time.Duration, uint64) {
	ht, data := grownTree(tb, nodes)
	snap := ht.CompileSnapshot(nil)
	fastest := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		ht.Train(data[i%len(data)])
		start := time.Now()
		snap = ht.CompileSnapshot(snap)
		fastest = min(fastest, time.Since(start))
	}
	var ms runtime.MemStats
	var bytes uint64
	for i := 0; i < rounds; i++ {
		ht.Train(data[i%len(data)])
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		snap = ht.CompileSnapshot(snap)
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
	}
	return fastest, bytes / uint64(rounds)
}

func TestCompileAfterTrainIsLeafLocal(t *testing.T) {
	const rounds = 500
	smallTime, _ := compileAfterTrainCost(t, 100, rounds)
	largeTime, largeBytes := compileAfterTrainCost(t, 1000, rounds)
	// The compile re-freezes the trained leaf where its block is stored.
	if largeBytes != 0 {
		t.Errorf("CompileSnapshot(prev) after a non-splitting Train allocated %d B on a 1000-node tree, want 0", largeBytes)
	}
	if ratio := float64(largeTime) / float64(smallTime); ratio > 3 {
		t.Errorf("CompileSnapshot(prev) took %v on 1000 nodes and %v on 100 (ratio %.1f), want <= 3", largeTime, smallTime, ratio)
	}
}

// compileAfterSplitCost returns the fastest CompileSnapshot(prev) after
// a Train that split, over the first `splits` splits once the tree has
// grown past `nodes` nodes. Every train step is compiled, so each split
// compile builds on the latest compile, as in the pipeline.
func compileAfterSplitCost(tb testing.TB, nodes, splits int) time.Duration {
	ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 20, MaxDepth: 64})
	data := gaussianStream(20000, 3, 8, 0.7, 77)
	snap := ht.CompileSnapshot(nil)
	fastest := time.Duration(math.MaxInt64)
	for i, seen := 0, 0; seen < splits; i++ {
		if i == 400*len(data) {
			tb.Fatalf("tree stuck at %d nodes after %d of %d splits", ht.NumNodes(), seen, splits)
		}
		before := ht.splitCount
		ht.Train(data[i%len(data)])
		start := time.Now()
		snap = ht.CompileSnapshot(snap)
		if elapsed := time.Since(start); ht.splitCount != before && ht.NumNodes() > nodes {
			fastest = min(fastest, elapsed)
			seen++
		}
	}
	return fastest
}

// TestCompileAfterSplitIsLocal is the scaling guard for a split: the
// compile rewrites the split leaf's node, appends two and freezes them,
// so a split on a 1000-node tree costs at most 3x one on a 100-node tree
// (a full flatten costs about 10x).
func TestCompileAfterSplitIsLocal(t *testing.T) {
	const splits = 40
	small := compileAfterSplitCost(t, 100, splits)
	large := compileAfterSplitCost(t, 1000, splits)
	if ratio := float64(large) / float64(small); ratio > 3 {
		t.Errorf("CompileSnapshot(prev) after a split took %v on 1000 nodes and %v on 100 (ratio %.1f), want <= 3", large, small, ratio)
	}
}
