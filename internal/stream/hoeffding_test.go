package stream

import (
	"math"
	"testing"

	"redhanded/internal/ml"
)

func defaultHT(classes, features int) *HoeffdingTree {
	return NewHoeffdingTree(HTConfig{NumClasses: classes, NumFeatures: features})
}

func TestHTLearnsSeparableData(t *testing.T) {
	data := gaussianStream(8000, 2, 4, 4, 1)
	acc := prequentialAccuracy(defaultHT(2, 4), data)
	if acc < 0.9 {
		t.Fatalf("prequential accuracy = %v, want >= 0.9", acc)
	}
}

func TestHTLearnsThreeClasses(t *testing.T) {
	data := gaussianStream(20000, 3, 4, 4, 2)
	acc := prequentialAccuracy(defaultHT(3, 4), data)
	if acc < 0.85 {
		t.Fatalf("3-class prequential accuracy = %v, want >= 0.85", acc)
	}
}

func TestHTGrowsAndRespectsDepth(t *testing.T) {
	cfg := HTConfig{NumClasses: 2, NumFeatures: 2, MaxDepth: 2, GracePeriod: 50}
	ht := NewHoeffdingTree(cfg)
	for _, in := range gaussianStream(20000, 2, 2, 3, 3) {
		ht.Train(in)
	}
	if ht.NumLeaves() < 2 {
		t.Fatalf("tree never split: %d leaves", ht.NumLeaves())
	}
	if d := ht.Depth(); d > 2 {
		t.Fatalf("depth = %d exceeds MaxDepth 2", d)
	}
}

func TestHTPureStreamDoesNotSplit(t *testing.T) {
	ht := defaultHT(2, 2)
	rng := ml.NewRNG(4)
	for i := 0; i < 5000; i++ {
		ht.Train(ml.NewInstance([]float64{rng.NormFloat64(), rng.NormFloat64()}, 0))
	}
	if ht.NumLeaves() != 1 {
		t.Fatalf("pure stream split the tree: %d leaves", ht.NumLeaves())
	}
}

func TestHTIgnoresInvalidInstances(t *testing.T) {
	ht := defaultHT(2, 2)
	ht.Train(ml.Instance{X: []float64{1, 2}, Label: ml.Unlabeled, Weight: 1})
	ht.Train(ml.Instance{X: []float64{math.NaN(), 0}, Label: 0, Weight: 1})
	ht.Train(ml.Instance{X: []float64{1, 2}, Label: 9, Weight: 1}) // out of range
	if ht.TrainCount() != 0 {
		t.Fatalf("invalid instances were counted: %d", ht.TrainCount())
	}
}

func TestHTWeightedTrainingEquivalence(t *testing.T) {
	// Training once with weight 3 must equal training three times.
	a := defaultHT(2, 1)
	b := defaultHT(2, 1)
	in := ml.NewInstance([]float64{1.5}, 1)
	w := in
	w.Weight = 3
	a.Train(w)
	b.Train(in)
	b.Train(in)
	b.Train(in)
	if a.TrainCount() != b.TrainCount() {
		t.Fatalf("train counts differ: %d vs %d", a.TrainCount(), b.TrainCount())
	}
	va := a.Predict([]float64{1.5})
	vb := b.Predict([]float64{1.5})
	for c := range va {
		if math.Abs(va[c]-vb[c]) > 1e-9 {
			t.Fatalf("weighted vs repeated training votes differ: %v vs %v", va, vb)
		}
	}
}

func TestHTPredictBeforeTraining(t *testing.T) {
	ht := defaultHT(3, 2)
	votes := ht.Predict([]float64{0, 0})
	if len(votes) != 3 {
		t.Fatalf("votes length = %d, want 3", len(votes))
	}
}

func TestHTMajorityClassLeaf(t *testing.T) {
	ht := NewHoeffdingTree(HTConfig{NumClasses: 2, NumFeatures: 1, LeafPrediction: MajorityClass})
	for i := 0; i < 10; i++ {
		ht.Train(ml.NewInstance([]float64{0}, 1))
	}
	if got := ht.Predict([]float64{0}).ArgMax(); got != 1 {
		t.Fatalf("majority class prediction = %d, want 1", got)
	}
}

func TestHTNaiveBayesBeatsMajorityWithinLeaf(t *testing.T) {
	// Data separable on the feature but too sparse to split: NB leaves can
	// exploit the observers where MC cannot.
	nb := NewHoeffdingTree(HTConfig{NumClasses: 2, NumFeatures: 1, LeafPrediction: NaiveBayes, GracePeriod: 1 << 30})
	mc := NewHoeffdingTree(HTConfig{NumClasses: 2, NumFeatures: 1, LeafPrediction: MajorityClass, GracePeriod: 1 << 30})
	data := gaussianStream(2000, 2, 1, 5, 5)
	accNB := prequentialAccuracy(nb, data)
	accMC := prequentialAccuracy(mc, data)
	if accNB <= accMC {
		t.Fatalf("NB leaf (%v) should beat MC leaf (%v) on sub-split data", accNB, accMC)
	}
	if accNB < 0.9 {
		t.Fatalf("NB leaf accuracy = %v, want >= 0.9", accNB)
	}
}

func TestHTConfigPanics(t *testing.T) {
	for _, cfg := range []HTConfig{
		{NumClasses: 1, NumFeatures: 2},
		{NumClasses: 2, NumFeatures: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewHoeffdingTree(cfg)
		}()
	}
}

func TestHTFeatureSubsetRestriction(t *testing.T) {
	// Only feature 1 is allowed for splits; feature 0 carries the signal,
	// so the tree should not be able to split on it.
	cfg := HTConfig{NumClasses: 2, NumFeatures: 2, FeatureSubset: []int{1}, GracePeriod: 100}
	ht := NewHoeffdingTree(cfg)
	rng := ml.NewRNG(6)
	for i := 0; i < 20000; i++ {
		label := rng.Intn(2)
		// feature 0 informative, feature 1 pure noise
		x := []float64{float64(label)*6 + rng.NormFloat64(), rng.NormFloat64()}
		ht.Train(ml.NewInstance(x, label))
	}
	// Any splits made must be on feature 1.
	var walk func(n *htNode)
	walk = func(n *htNode) {
		if n == nil || n.isLeaf() {
			return
		}
		if n.feature != 1 {
			t.Fatalf("split on forbidden feature %d", n.feature)
		}
		walk(n.left)
		walk(n.right)
	}
	walk(ht.root)
}

func TestHTNumNodesConsistency(t *testing.T) {
	ht := defaultHT(2, 4)
	for _, in := range gaussianStream(20000, 2, 4, 4, 7) {
		ht.Train(in)
	}
	// Binary tree invariant: nodes = 2*splits + 1, leaves = splits + 1.
	if ht.NumNodes() != 2*int(ht.splitCount)+1 {
		t.Fatalf("node count inconsistent")
	}
	if ht.NumLeaves() != int(ht.splitCount)+1 {
		t.Fatalf("leaf count %d != splits+1 (%d)", ht.NumLeaves(), ht.splitCount+1)
	}
}

// TestHTBeatsBaselines: on the same test-then-train stream the tree beats
// the trivial predictors — the majority class so far, and the previous
// label (no-change).
func TestHTBeatsBaselines(t *testing.T) {
	data := gaussianStream(8000, 2, 4, 4, 41)
	htAcc := prequentialAccuracy(defaultHT(2, 4), data)
	var counts [2]int
	majority, noChange, last := 0, 0, 0
	for _, in := range data {
		predicted := 0
		if counts[1] > counts[0] {
			predicted = 1
		}
		if predicted == in.Label {
			majority++
		}
		if last == in.Label {
			noChange++
		}
		counts[in.Label]++
		last = in.Label
	}
	majAcc, ncAcc := float64(majority)/float64(len(data)), float64(noChange)/float64(len(data))
	if htAcc <= majAcc || htAcc <= ncAcc {
		t.Fatalf("HT (%v) does not beat baselines (majority %v, no-change %v)", htAcc, majAcc, ncAcc)
	}
}

// TestTrainStepZeroAlloc holds a train step that does not split to zero
// allocations: a tree's in every leaf-prediction mode, with a split
// attempt on every step, a forest's labeled step and an SLR step
// (TestCompileInPlaceZeroAlloc holds the compile after it). Each tree is
// grown first, so every leaf has met every feature, then made unable to
// split: a confidence of 1e-300 widens the Hoeffding bound about
// thirty-fold.
func TestTrainStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data := gaussianStream(4000, 3, 8, 1.0, 61)
	for _, mode := range []LeafPrediction{MajorityClass, NaiveBayes, NaiveBayesAdaptive} {
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 50, LeafPrediction: mode})
		for _, in := range data {
			ht.Train(in)
		}
		ht.cfg.GracePeriod, ht.cfg.SplitConfidence, ht.cfg.TieThreshold = 1, 1e-300, 1e-300
		splits, i := ht.splitCount, 0
		if allocs := testing.AllocsPerRun(400, func() {
			ht.Train(data[i%len(data)])
			i++
		}); allocs != 0 {
			t.Errorf("mode %d: a non-splitting Train allocates %v, want 0", mode, allocs)
		}
		if ht.splitCount != splits || ht.splitCount == 0 {
			t.Fatalf("mode %d: %d splits before the measurement, %d after: want some, and none during it", mode, splits, ht.splitCount)
		}
	}

	// A labeled forest step: every member's prequential vote, bagged
	// training and detector update, with no split and no tree started or
	// replaced during the measurement.
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 8, EnsembleSize: 5, Seed: 1})
	for _, in := range data {
		f.Train(in)
	}
	var trees []*HoeffdingTree // the members' trees and background trees
	for _, m := range f.members {
		trees = append(trees, m.tree)
		if m.background != nil {
			trees = append(trees, m.background)
		}
	}
	splits := int64(0)
	for _, ht := range trees {
		ht.cfg.GracePeriod, ht.cfg.SplitConfidence, ht.cfg.TieThreshold = 1, 1e-300, 1e-300
		splits += ht.splitCount
	}
	warnings, drifts, i := f.warnings, f.drifts, 0
	if allocs := testing.AllocsPerRun(400, func() {
		f.Train(data[i%len(data)])
		i++
	}); allocs != 0 {
		t.Errorf("arf: a labeled Train allocates %v, want 0", allocs)
	}
	for _, ht := range trees {
		splits -= ht.splitCount
	}
	if splits != 0 || f.warnings != warnings || f.drifts != drifts {
		t.Fatalf("arf: %d splits, %d warnings, %d drifts during the measurement, want none",
			-splits, f.warnings-warnings, f.drifts-drifts)
	}

	// A labeled SLR step.
	slr := NewSLR(SLRConfig{NumClasses: 3, NumFeatures: 8})
	if allocs := testing.AllocsPerRun(400, func() {
		slr.Train(data[i%len(data)])
		i++
	}); allocs != 0 {
		t.Errorf("slr: a labeled Train allocates %v, want 0", allocs)
	}
}
