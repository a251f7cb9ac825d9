package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"redhanded/internal/ml"
	"redhanded/internal/norm"
)

// gobBlob encodes v the way the model codecs do.
func gobBlob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyDelta rebinds a remote delta to m and, when that succeeds, merges
// it — the driver's decode-then-merge path. A panic in either step is
// returned as an error so a table can report every case.
func applyDelta(m Model, blob []byte) (accepted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	acc, err := m.AccumulatorFromState(blob)
	if err != nil {
		return false, nil
	}
	m.ApplyAccumulators([]ml.Accumulator{acc})
	return true, nil
}

// TestMalformedDeltaRejected feeds the driver's delta decoders payloads
// that gob-decode but do not fit the receiving model. Each must be an
// error from AccumulatorFromState, which fails the share over, not a
// panic there or in ApplyAccumulators.
func TestMalformedDeltaRejected(t *testing.T) {
	obs := func(classes int) ObserverState { return ObserverState{PerClass: make([]norm.Welford, classes)} }
	htDelta := func(ids []int64, leaves ...htLeafDeltaState) []byte {
		return gobBlob(t, htDeltaState{Count: 1, LeafIDs: ids, Deltas: leaves})
	}
	counts := func(n int) []float64 { return make([]float64, n) }
	newHT := func() Model { return defaultHT(2, 4) } // one leaf, id 1
	newSLR := func() Model { return NewSLR(SLRConfig{NumClasses: 2, NumFeatures: 4}) }

	// ARF cases start from a genuine delta and break one member of it.
	newARF := func() Model { return trainedARF(t, 300, 31) }
	arfDelta := func(edit func(f *AdaptiveRandomForest, st *arfDeltaState)) []byte {
		f := newARF().(*AdaptiveRandomForest)
		acc := f.NewAccumulator()
		for _, in := range gaussianStream(50, 2, 4, 4, 32) {
			acc.Observe(in)
		}
		blob, err := acc.(StatefulAccumulator).State()
		if err != nil {
			t.Fatal(err)
		}
		var st arfDeltaState
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		edit(f, &st)
		return gobBlob(t, st)
	}

	for _, tc := range []struct {
		name  string
		model func() Model
		blob  []byte
	}{
		{"HT leaf ids without leaf deltas", newHT, htDelta([]int64{1})},
		{"HT four class counts on two classes", newHT, htDelta([]int64{1}, htLeafDeltaState{ClassCounts: counts(4), Weight: 1})},
		{"HT one class count on two classes", newHT, htDelta([]int64{1}, htLeafDeltaState{ClassCounts: counts(1), Weight: 1})},
		{"HT observer index without observer", newHT, htDelta([]int64{1}, htLeafDeltaState{ClassCounts: counts(2), ObsIdx: []int{0}})},
		{"HT observer beyond the features", newHT, htDelta([]int64{1}, htLeafDeltaState{ClassCounts: counts(2), ObsIdx: []int{4}, Obs: []ObserverState{obs(2)}})},
		{"HT observer of three classes", newHT, htDelta([]int64{1}, htLeafDeltaState{ClassCounts: counts(2), ObsIdx: []int{0}, Obs: []ObserverState{obs(3)}})},
		{"SLR one weight row for two classes", newSLR, gobBlob(t, slrDeltaState{W: [][]float64{make([]float64, 5)}, Count: 1})},
		{"SLR short weight rows", newSLR, gobBlob(t, slrDeltaState{W: [][]float64{make([]float64, 2), make([]float64, 2)}, Count: 1})},
		{"ARF member delta with four class counts", newARF, arfDelta(func(f *AdaptiveRandomForest, st *arfDeltaState) {
			tree := f.members[0].tree
			var leaf int64
			for id := range tree.leaves {
				leaf = id
				break
			}
			st.Trees[0] = gobBlob(t, htDeltaState{Version: tree.Version(), Count: 1,
				LeafIDs: []int64{leaf}, Deltas: []htLeafDeltaState{{ClassCounts: counts(4), Weight: 1}}})
		})},
		{"ARF member scored more instances than the delta", newARF, arfDelta(func(_ *AdaptiveRandomForest, st *arfDeltaState) {
			st.Seen[0]++
		})},
		{"ARF member with more errors than instances", newARF, arfDelta(func(_ *AdaptiveRandomForest, st *arfDeltaState) {
			st.Errors[0] = st.Seen[0] + 1
		})},
	} {
		accepted, err := applyDelta(tc.model(), tc.blob)
		switch {
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case accepted:
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// seedModels returns trained models of every registered kind, the
// receivers and seed sources of the fuzzers below.
func seedModels() []Model {
	ht := defaultHT(2, 4)
	for _, in := range gaussianStream(1000, 2, 4, 4, 61) {
		ht.Train(in)
	}
	nb := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 4, LeafPrediction: NaiveBayes})
	slr := NewSLR(SLRConfig{NumClasses: 3, NumFeatures: 4})
	for _, in := range gaussianStream(600, 3, 4, 4, 62) {
		nb.Train(in)
		slr.Train(in)
	}
	// Small seeds keep mutation and minimization fast; the ARF's detector
	// state grows with every instance it sees.
	arf := NewAdaptiveRandomForest(ARFConfig{NumClasses: 2, NumFeatures: 4, EnsembleSize: 2, Seed: 63})
	for _, in := range gaussianStream(300, 2, 4, 4, 63) {
		arf.Train(in)
	}
	arf.members[1].background = arf.newTree()
	arf.members[1].bgGen = arf.newGen()
	return []Model{ht, nb, slr, arf}
}

// predictZero compiles m and classifies a zero vector long enough for any
// feature an accepted model may split on.
func predictZero(m Model) {
	snap := m.CompileSnapshot(nil)
	dst := make([]float64, snap.NumClasses())
	snap.PredictInto(dst, make([]float64, snap.ScratchLen()), make([]float64, maxDim))
}

// FuzzDecodeModel holds the one broadcast decoder to its contract: for
// any bytes and any registered kind, DecodeModel returns an error or a
// model that compiles and predicts — never a panic.
func FuzzDecodeModel(f *testing.F) {
	kinds := KnownKinds()
	kindIdx := make(map[string]uint8, len(kinds))
	for i, k := range kinds {
		kindIdx[k] = uint8(i)
	}
	for _, m := range seedModels() {
		blob, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kindIdx[m.Kind()], blob)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m, err := DecodeModel(kinds[int(kind)%len(kinds)], data)
		if err != nil {
			return
		}
		predictZero(m)
	})
}

// FuzzAccumulatorFromState holds the driver's delta decoders to theirs:
// for any bytes, AccumulatorFromState against a trained model returns an
// error or an accumulator that merges, after which the model still
// compiles and predicts. Seeds are genuine deltas from a decoded replica,
// as an executor makes them.
func FuzzAccumulatorFromState(f *testing.F) {
	models := seedModels()
	blobs := make([][]byte, len(models))
	for i, m := range models {
		blob, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		blobs[i] = blob
		replica, err := DecodeModel(m.Kind(), blob)
		if err != nil {
			f.Fatal(err)
		}
		acc := replica.NewAccumulator()
		for _, in := range gaussianStream(200, m.NumClasses(), 4, 4, uint64(70+i)) {
			acc.Observe(in)
		}
		delta, err := acc.(StatefulAccumulator).State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), delta)
	}
	f.Fuzz(func(t *testing.T, receiver uint8, data []byte) {
		i := int(receiver) % len(models)
		m, err := DecodeModel(models[i].Kind(), blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.AccumulatorFromState(data)
		if err != nil {
			return
		}
		// The driver refuses a delta counting more instances than its
		// share holds; a fuzzed count must not stand in for a batch size.
		if acc.Count() > 1<<12 {
			return
		}
		m.ApplyAccumulators([]ml.Accumulator{acc})
		predictZero(m)
	})
}
