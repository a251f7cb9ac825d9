package stream

import (
	"bytes"
	"testing"

	"redhanded/internal/ml"
)

// trainDistributed simulates micro-batch training: split the stream into
// batches, fan each batch out to nTasks accumulators, and merge.
func trainDistributed(m ml.DistributedClassifier, data []ml.Instance, batchSize, nTasks int) {
	for start := 0; start < len(data); start += batchSize {
		end := start + batchSize
		if end > len(data) {
			end = len(data)
		}
		batch := data[start:end]
		accs := make([]ml.Accumulator, nTasks)
		for i := range accs {
			accs[i] = m.NewAccumulator()
		}
		for i, in := range batch {
			accs[i%nTasks].Observe(in)
		}
		m.ApplyAccumulators(accs)
	}
}

func holdoutAccuracy(m ml.Classifier, data []ml.Instance) float64 {
	correct := 0
	for _, in := range data {
		if m.Predict(in.X).ArgMax() == in.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

func TestHTDistributedMatchesSequentialQuality(t *testing.T) {
	train := gaussianStream(12000, 2, 4, 4, 1)
	test := gaussianStream(2000, 2, 4, 4, 99)

	seq := defaultHT(2, 4)
	for _, in := range train {
		seq.Train(in)
	}
	dist := defaultHT(2, 4)
	trainDistributed(dist, train, 1000, 4)

	accSeq := holdoutAccuracy(seq, test)
	accDist := holdoutAccuracy(dist, test)
	if accDist < accSeq-0.05 {
		t.Fatalf("distributed HT (%v) much worse than sequential (%v)", accDist, accSeq)
	}
	if dist.TrainCount() != int64(len(train)) {
		t.Fatalf("distributed train count = %d, want %d", dist.TrainCount(), len(train))
	}
}

func TestHTAccumulatorCountConservation(t *testing.T) {
	ht := defaultHT(2, 2)
	acc := ht.NewAccumulator()
	data := gaussianStream(500, 2, 2, 3, 2)
	for _, in := range data {
		acc.Observe(in)
	}
	if acc.Count() != 500 {
		t.Fatalf("accumulator count = %d, want 500", acc.Count())
	}
	ht.ApplyAccumulators([]ml.Accumulator{acc})
	if ht.TrainCount() != 500 {
		t.Fatalf("tree count after apply = %d, want 500", ht.TrainCount())
	}
}

func TestHTStaleAccumulatorDropped(t *testing.T) {
	ht := NewHoeffdingTree(HTConfig{NumClasses: 2, NumFeatures: 2, GracePeriod: 100})
	// Create an accumulator, then force the tree to split so the leaf ids
	// inside the accumulator become stale.
	stale := ht.NewAccumulator()
	for _, in := range gaussianStream(200, 2, 2, 6, 3) {
		stale.Observe(in)
	}
	for _, in := range gaussianStream(5000, 2, 2, 6, 4) {
		ht.Train(in)
	}
	if ht.NumLeaves() < 2 {
		t.Skip("tree did not split; cannot test staleness")
	}
	before := ht.NumLeaves()
	// Applying the stale accumulator must not panic or corrupt the tree.
	ht.ApplyAccumulators([]ml.Accumulator{stale})
	if ht.NumLeaves() < before {
		t.Fatalf("stale accumulator corrupted the tree")
	}
}

func TestSLRDistributedMatchesSequentialQuality(t *testing.T) {
	train := gaussianStream(12000, 2, 4, 3, 5)
	test := gaussianStream(2000, 2, 4, 3, 98)

	seq := NewSLR(SLRConfig{NumClasses: 2, NumFeatures: 4})
	for _, in := range train {
		seq.Train(in)
	}
	dist := NewSLR(SLRConfig{NumClasses: 2, NumFeatures: 4})
	trainDistributed(dist, train, 1000, 4)

	accSeq := holdoutAccuracy(seq, test)
	accDist := holdoutAccuracy(dist, test)
	if accDist < accSeq-0.05 {
		t.Fatalf("distributed SLR (%v) much worse than sequential (%v)", accDist, accSeq)
	}
}

func TestSLREmptyAccumulatorsNoop(t *testing.T) {
	slr := NewSLR(SLRConfig{NumClasses: 2, NumFeatures: 2})
	for _, in := range gaussianStream(1000, 2, 2, 3, 6) {
		slr.Train(in)
	}
	before := holdoutAccuracy(slr, gaussianStream(500, 2, 2, 3, 97))
	slr.ApplyAccumulators([]ml.Accumulator{slr.NewAccumulator(), slr.NewAccumulator()})
	after := holdoutAccuracy(slr, gaussianStream(500, 2, 2, 3, 97))
	if before != after {
		t.Fatalf("empty accumulators changed the model: %v -> %v", before, after)
	}
}

func TestARFDistributedTrainsAndPredicts(t *testing.T) {
	train := gaussianStream(8000, 2, 4, 4, 7)
	test := gaussianStream(1500, 2, 4, 4, 96)
	arf := NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 4, EnsembleSize: 5, Seed: 9})
	trainDistributed(arf, train, 1000, 4)
	if acc := holdoutAccuracy(arf, test); acc < 0.8 {
		t.Fatalf("distributed ARF accuracy = %v, want >= 0.8", acc)
	}
	if arf.TrainCount() != int64(len(train)) {
		t.Fatalf("ARF distributed count = %d, want %d", arf.TrainCount(), len(train))
	}
}

// TestHTMergeSplitsInLeafOrder: twin trees fed one accumulator round that
// splits several leaves number the new leaves alike and serialize to the
// same bytes. The round's leaves split in ascending leaf id; in map
// iteration order, which varies run to run, the twins almost never agree.
func TestHTMergeSplitsInLeafOrder(t *testing.T) {
	cfg := HTConfig{NumClasses: 3, NumFeatures: 6, GracePeriod: 50}
	warm := gaussianStream(3000, 3, 6, 1.5, 31)
	round := gaussianStream(6000, 3, 6, 1.5, 32)
	twins := [2]*HoeffdingTree{NewHoeffdingTree(cfg), NewHoeffdingTree(cfg)}
	for _, tree := range twins {
		for _, in := range warm {
			tree.Train(in)
		}
	}
	leaves, splits := twins[0].NumLeaves(), twins[0].splitCount
	var blobs [2][]byte
	for i, tree := range twins {
		acc := tree.NewAccumulator()
		for _, in := range round {
			acc.Observe(in)
		}
		tree.ApplyAccumulators([]ml.Accumulator{acc})
		blob, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
	}
	if n := twins[0].splitCount - splits; n < 2 {
		t.Fatalf("the round split %d of %d leaves, want at least 2", n, leaves)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("twin trees serialize differently after one round that split %d of %d leaves", twins[0].splitCount-splits, leaves)
	}
}
