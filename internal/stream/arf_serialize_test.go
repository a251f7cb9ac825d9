package stream

import (
	"testing"

	"redhanded/internal/ml"
)

func trainedARF(t *testing.T, n int, seed uint64) *AdaptiveRandomForest {
	t.Helper()
	arf := NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 4, EnsembleSize: 5, Seed: seed})
	for _, in := range gaussianStream(n, 2, 4, 4, seed) {
		arf.Train(in)
	}
	return arf
}

func samePredictions(t *testing.T, a, b ml.Classifier, data []ml.Instance, label string) {
	t.Helper()
	for _, in := range data {
		va, vb := a.Predict(in.X), b.Predict(in.X)
		for c := range va {
			if va[c] != vb[c] {
				t.Fatalf("%s: votes differ: %v vs %v", label, va, vb)
			}
		}
	}
}

func TestARFSerializationRoundTrip(t *testing.T) {
	arf := trainedARF(t, 6000, 21)
	blob, err := arf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || len(blob) > 1<<20 {
		t.Fatalf("serialized size %d bytes; paper expects < 1MB", len(blob))
	}
	restored, err := DecodeModel(KindARF, blob)
	if err != nil {
		t.Fatal(err)
	}
	test := gaussianStream(500, 2, 4, 4, 50)
	samePredictions(t, arf, restored.(*AdaptiveRandomForest), test, "full round trip")

	// The full encoding captures detectors, background trees, and the
	// structural RNG, so both forests keep evolving identically — including
	// through a concept flip that forces drift reactions.
	flip := func(f *AdaptiveRandomForest) {
		rng := ml.NewRNG(7)
		for i := 0; i < 4000; i++ {
			label := rng.Intn(2)
			f.Train(ml.NewInstance([]float64{float64(1-label) * 5, rng.NormFloat64(), 0, 0}, label))
		}
	}
	r := restored.(*AdaptiveRandomForest)
	flip(arf)
	flip(r)
	samePredictions(t, arf, r, test, "post-drift continuation")
	if arf.DriftsDetected() != r.DriftsDetected() || arf.WarningsDetected() != r.WarningsDetected() {
		t.Fatalf("drift reactions diverged: (%d,%d) vs (%d,%d)",
			arf.DriftsDetected(), arf.WarningsDetected(), r.DriftsDetected(), r.WarningsDetected())
	}
}

func TestARFSerializationRoundTripDDM(t *testing.T) {
	arf := NewAdaptiveRandomForest(ARFConfig{
		NumClasses: 2, NumFeatures: 4, EnsembleSize: 3, Seed: 22, Detector: DetectDDM,
	})
	for _, in := range gaussianStream(3000, 2, 4, 4, 22) {
		arf.Train(in)
	}
	blob, err := arf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeModel(KindARF, blob)
	if err != nil {
		t.Fatal(err)
	}
	cont := gaussianStream(2000, 2, 4, 4, 23)
	r := restored.(*AdaptiveRandomForest)
	for _, in := range cont {
		arf.Train(in)
		r.Train(in)
	}
	samePredictions(t, arf, r, gaussianStream(300, 2, 4, 4, 51), "DDM continuation")
}

func TestARFRemoteAccumulatorRoundTrip(t *testing.T) {
	global := trainedARF(t, 3000, 27)
	// Give one member a background tree so the delta covers it too.
	global.members[1].background = global.newTree()
	global.members[1].bgGen = global.newGen()

	blob, err := global.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := DecodeModel(KindARF, blob)
	if err != nil {
		t.Fatal(err)
	}
	acc := remote.NewAccumulator()
	batch := gaussianStream(800, 2, 4, 4, 28)
	for _, in := range batch {
		acc.Observe(in)
	}
	state, err := acc.(StatefulAccumulator).State()
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := global.AccumulatorFromState(state)
	if err != nil {
		t.Fatal(err)
	}
	before := global.TrainCount()
	bgBefore := global.members[1].background.TrainCount()
	global.ApplyAccumulators([]ml.Accumulator{rebound})
	if global.TrainCount() != before+int64(len(batch)) {
		t.Fatalf("remote delta lost instances: %d -> %d", before, global.TrainCount())
	}
	if global.members[1].background != nil && global.members[1].background.TrainCount() == bgBefore {
		t.Fatal("background tree never trained from the remote delta")
	}
}

func TestARFDeltaGarbageRejected(t *testing.T) {
	arf := trainedARF(t, 500, 29)
	if _, err := arf.AccumulatorFromState([]byte("garbage")); err == nil {
		t.Fatal("garbage ARF delta accepted")
	}
	if err := arf.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage ARF model accepted")
	}
}

func TestCodecRegistry(t *testing.T) {
	for _, kind := range []string{KindHT, KindSLR, KindARF} {
		if !KnownKind(kind) {
			t.Fatalf("kind %s not known", kind)
		}
	}
	if KnownKind("XGB") {
		t.Fatal("unknown kind reported as known")
	}
	kinds := KnownKinds()
	if len(kinds) < 3 {
		t.Fatalf("KnownKinds lists %v", kinds)
	}
	for _, m := range []RemoteTrainable{
		NewHoeffdingTree(HTConfig{NumClasses: 2, NumFeatures: 2}),
		NewSLR(SLRConfig{NumClasses: 2, NumFeatures: 2}),
		NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 2}),
	} {
		kind, err := ModelKindOf(m)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeModel(kind, blob); err != nil {
			t.Fatalf("decode %s: %v", kind, err)
		}
	}
	if _, err := DecodeModel("XGB", nil); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

// TestARFBaggingWeightsAreCounterBased pins the property the cluster
// equivalence relies on: the weight for (instance position, member) is a
// pure function, identical across independent forests with the same seed.
func TestARFBaggingWeightsAreCounterBased(t *testing.T) {
	a := NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 2, EnsembleSize: 4, Seed: 30})
	b := NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 2, EnsembleSize: 4, Seed: 30})
	for n := int64(0); n < 100; n++ {
		for i := 0; i < 4; i++ {
			if a.baggingWeight(n, i) != b.baggingWeight(n, i) {
				t.Fatalf("weights diverge at (%d, %d)", n, i)
			}
		}
	}
	// Distinct positions and members decorrelate.
	seen := map[float64]int{}
	for n := int64(0); n < 200; n++ {
		seen[a.baggingWeight(n, 0)]++
	}
	if len(seen) < 3 {
		t.Fatalf("weights barely vary: %v", seen)
	}
}
