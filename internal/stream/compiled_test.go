package stream

import (
	"math"
	"testing"

	"redhanded/internal/ml"
)

// assertVotesIdentical fails unless got and want are bit-for-bit equal
// (including NaN patterns, which Float64bits makes visible).
func assertVotesIdentical(t *testing.T, tag string, got, want ml.Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: vote length %d, want %d", tag, len(got), len(want))
	}
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: class %d vote %v (bits %x), live path %v (bits %x)",
				tag, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
		}
	}
}

// checkCompiledEquivalence trains the model over data, recompiling every
// interval instances and comparing compiled votes bit-for-bit against
// the live Predict on every probe.
func checkCompiledEquivalence(t *testing.T, tag string, model interface {
	ml.StreamClassifier
	Compilable
}, data, probes []ml.Instance, interval int) {
	t.Helper()
	var snap *Compiled
	check := func(step int) {
		snap = model.CompileSnapshot(snap)
		if snap.Epoch() != model.Epoch() {
			t.Fatalf("%s step %d: snapshot epoch %d, model epoch %d", tag, step, snap.Epoch(), model.Epoch())
		}
		dst := make(ml.Prediction, snap.NumClasses())
		scratch := make([]float64, snap.ScratchLen())
		for i, p := range probes {
			snap.PredictInto(dst, scratch, p.X)
			live := model.Predict(p.X)
			assertVotesIdentical(t, tagStep(t, tag, step, i), dst, live)
		}
	}
	check(0)
	for i, in := range data {
		model.Train(in)
		if (i+1)%interval == 0 {
			check(i + 1)
		}
	}
	check(len(data))
}

func tagStep(t *testing.T, tag string, step, probe int) string {
	t.Helper()
	return tag + "/" + itoa(step) + "/probe" + itoa(probe)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestCompiledMatchesLiveHT(t *testing.T) {
	for _, tc := range []struct {
		name string
		leaf LeafPrediction
	}{
		{"majority-class", MajorityClass},
		{"naive-bayes", NaiveBayes},
		{"naive-bayes-adaptive", NaiveBayesAdaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := gaussianStream(3000, 3, 8, 1.5, 7)
			probes := gaussianStream(200, 3, 8, 1.5, 8)
			ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: tc.leaf})
			checkCompiledEquivalence(t, "ht/"+tc.name, ht, data, probes, 500)
			if ht.splitCount == 0 {
				t.Fatalf("tree never split; the test only exercised the root leaf")
			}
		})
	}
}

func TestCompiledMatchesLiveSLR(t *testing.T) {
	data := gaussianStream(2000, 3, 8, 1.5, 9)
	probes := gaussianStream(200, 3, 8, 1.5, 10)
	slr := NewSLR(SLRConfig{NumClasses: 3, NumFeatures: 8})
	checkCompiledEquivalence(t, "slr", slr, data, probes, 400)
}

func TestCompiledMatchesLiveARF(t *testing.T) {
	// Two segments with flipped class geometry so drift detectors fire
	// and member trees get replaced mid-stream; the compiled snapshot
	// must track through warnings, background promotion, and resets.
	seg1 := gaussianStream(2500, 3, 8, 2.5, 11)
	seg2 := gaussianStream(2500, 3, 8, 2.5, 12)
	for i := range seg2 {
		seg2[i].Label = (seg2[i].Label + 1) % 3
	}
	data := append(append([]ml.Instance(nil), seg1...), seg2...)
	probes := gaussianStream(100, 3, 8, 2.5, 13)

	f := NewAdaptiveRandomForest(ARFConfig{
		NumClasses: 3, NumFeatures: 8, EnsembleSize: 5, Seed: 3,
		Tree: HTConfig{LeafPrediction: NaiveBayesAdaptive},
	})
	checkCompiledEquivalence(t, "arf", f, data, probes, 500)
	if f.DriftStats().TreeReplacements == 0 {
		t.Fatalf("no member trees were replaced; the drift path went unexercised")
	}
}

func TestCompiledSerializeRoundTripInvalidates(t *testing.T) {
	data := gaussianStream(1500, 3, 6, 1.5, 21)
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 6, EnsembleSize: 3, Seed: 5})
	for _, in := range data {
		f.Train(in)
	}
	snap := f.CompileSnapshot(nil)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() == snap.Epoch() {
		t.Fatalf("UnmarshalBinary did not bump the epoch; stale snapshots would survive a restore")
	}
	next := f.CompileSnapshot(snap)
	if next.Epoch() != f.Epoch() || next.Rebuilt() != f.EnsembleSize() {
		t.Fatalf("the compile after a restore re-compiled %d of %d member trees at epoch %d (model %d), want all",
			next.Rebuilt(), f.EnsembleSize(), next.Epoch(), f.Epoch())
	}
	probe := data[0].X
	assertVotesIdentical(t, "restored", next.Predict(probe), f.Predict(probe))
}

// TestCompiledIncrementalRebuild pins the O(changed trees) property: a
// compile re-compiles exactly the member trees whose epoch moved, leaves
// the rest as they are, and every compile returns the forest's one
// compiled form.
func TestCompiledIncrementalRebuild(t *testing.T) {
	data := gaussianStream(1200, 3, 8, 1.5, 31)
	// Lambda 1 makes Poisson zero-draws common (P ≈ 0.37 per member), so
	// a single train step leaves several member trees untouched and the
	// path that leaves them as they are is actually exercised.
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 8, EnsembleSize: 8, Seed: 9, Lambda: 1})
	for _, in := range data[:1000] {
		f.Train(in)
	}
	snap := f.CompileSnapshot(nil)
	if snap.Rebuilt() != f.EnsembleSize() {
		t.Fatalf("initial compile rebuilt %d trees, want all %d", snap.Rebuilt(), f.EnsembleSize())
	}
	if again := f.CompileSnapshot(snap); again != snap {
		t.Fatalf("a second CompileSnapshot returned another compiled form")
	}

	for _, in := range data[1000:1001] {
		type key struct {
			tree  *HoeffdingTree
			epoch uint64
		}
		before := make([]key, len(f.members))
		for i, m := range f.members {
			before[i] = key{m.tree, m.tree.epoch}
		}
		f.Train(in)
		changed := 0
		for i, m := range f.members {
			if before[i].tree != m.tree || before[i].epoch != m.tree.epoch {
				changed++
			}
		}
		arena := make([]*float64, len(f.members))
		for i, m := range f.members {
			arena[i] = &m.tree.flat.arena[0]
		}
		if next := f.CompileSnapshot(snap); next != snap || next.Rebuilt() != changed {
			t.Fatalf("rebuild re-compiled %d trees; exactly %d member trees changed", next.Rebuilt(), changed)
		}
		if changed == f.EnsembleSize() {
			t.Fatalf("every bagging weight was nonzero; the reuse path went unexercised (pick another seed)")
		}
		for i, m := range f.members {
			if snap.trees[i] != &m.tree.flat {
				t.Fatalf("member %d: the compiled form does not point at the member's own compiled tree", i)
			}
			if before[i].epoch == m.tree.epoch && &m.tree.flat.arena[0] != arena[i] {
				t.Fatalf("member %d did not change, yet its compiled tree moved", i)
			}
		}
	}
}

// TestCompiledPredictZeroAlloc is the CompiledClassify gate: classifying
// against a compiled snapshot of each model kind, with caller-owned vote
// and scratch buffers, allocates nothing.
func TestCompiledPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data := gaussianStream(3000, 3, 16, 1.5, 51)
	for name, model := range map[string]interface {
		ml.StreamClassifier
		Compilable
	}{
		"HT":  NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 16, LeafPrediction: NaiveBayesAdaptive}),
		"ARF": NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 16, EnsembleSize: 10, Seed: 1}),
		"SLR": NewSLR(SLRConfig{NumClasses: 3, NumFeatures: 16}),
	} {
		for _, in := range data {
			model.Train(in)
		}
		snap := model.CompileSnapshot(nil)
		dst := make([]float64, snap.NumClasses())
		scratch := make([]float64, snap.ScratchLen())
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			snap.PredictInto(dst, scratch, data[i%len(data)].X)
			i++
		}); allocs != 0 {
			t.Errorf("%s: PredictInto allocates %v per call, want 0", name, allocs)
		}
	}
}

// TestCompileInPlaceZeroAlloc is the CompileInPlace gate: the compile
// after a change that splits nothing allocates nothing for any model
// kind — a tree's leaf re-freeze in each leaf-prediction mode, the
// forest's weights and its members' re-freezes, SLR's weight copy. The
// models are grown first and their trees then kept from splitting the
// way TestTrainStepZeroAlloc keeps its own. Each measured run changes
// the model without allocating and compiles: a tree or the forest trains
// one instance; one SLR weight moves.
func TestCompileInPlaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data := gaussianStream(4000, 3, 8, 1.0, 61)
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 8, EnsembleSize: 5, Seed: 1})
	slr := NewSLR(SLRConfig{NumClasses: 3, NumFeatures: 8})
	type subject struct {
		m    Model
		step func(i int)
	}
	subjects := map[string]subject{
		"arf": {f, func(i int) { f.Train(data[i%len(data)]) }},
		"slr": {slr, func(i int) {
			slr.w[i%3][i%9] += 1e-3
			slr.epoch++
		}},
	}
	for _, mode := range []LeafPrediction{MajorityClass, NaiveBayes, NaiveBayesAdaptive} {
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 50, LeafPrediction: mode})
		subjects["ht/mode "+itoa(int(mode))] = subject{ht, func(i int) { ht.Train(data[i%len(data)]) }}
	}
	for name, sub := range subjects {
		m, step := sub.m, sub.step
		for _, in := range data {
			m.Train(in)
		}
		m.CompileSnapshot(nil)
		var trees []*HoeffdingTree
		switch m := m.(type) {
		case *HoeffdingTree:
			trees = append(trees, m)
		case *AdaptiveRandomForest:
			for _, mb := range m.members {
				trees = append(trees, mb.tree)
				if mb.background != nil {
					trees = append(trees, mb.background)
				}
			}
		}
		splits := int64(0)
		for _, ht := range trees {
			ht.cfg.GracePeriod, ht.cfg.SplitConfidence, ht.cfg.TieThreshold = 1, 1e-300, 1e-300
			splits += ht.splitCount
		}
		i := 0
		if allocs := testing.AllocsPerRun(400, func() {
			step(i)
			m.CompileSnapshot(nil)
			i++
		}); allocs != 0 {
			t.Errorf("%s: the compile after a change that splits nothing allocates %v, want 0", name, allocs)
		}
		for _, ht := range trees {
			splits -= ht.splitCount
		}
		if splits != 0 {
			t.Fatalf("%s: %d splits during the measurement", name, -splits)
		}
	}
}

func BenchmarkCompiledPredict(b *testing.B) {
	data := gaussianStream(3000, 3, 16, 1.5, 51)
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 16, EnsembleSize: 10, Seed: 1})
	for _, in := range data {
		f.Train(in)
	}
	snap := f.CompileSnapshot(nil)
	dst := make([]float64, snap.NumClasses())
	scratch := make([]float64, snap.ScratchLen())
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Predict(data[i%len(data)].X)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.PredictInto(dst, scratch, data[i%len(data)].X)
		}
	})
}
