package stream

import (
	"math"
	"sync"
	"sync/atomic"
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
	if next == snap {
		t.Fatalf("CompileSnapshot reused a snapshot across a full restore")
	}
	probe := data[0].X
	assertVotesIdentical(t, "restored", next.Predict(probe), f.Predict(probe))
}

// TestCompiledIncrementalRebuild pins the O(changed trees) property: a
// snapshot rebuild re-flattens exactly the member trees whose epoch
// moved, reuses the rest by pointer, and a no-op rebuild returns the
// previous snapshot itself.
func TestCompiledIncrementalRebuild(t *testing.T) {
	data := gaussianStream(1200, 3, 8, 1.5, 31)
	// Lambda 1 makes Poisson zero-draws common (P ≈ 0.37 per member), so
	// a single train step leaves several member trees untouched and the
	// pointer-reuse path is actually exercised.
	f := NewAdaptiveRandomForest(ARFConfig{NumClasses: 3, NumFeatures: 8, EnsembleSize: 8, Seed: 9, Lambda: 1})
	for _, in := range data[:1000] {
		f.Train(in)
	}
	snap := f.CompileSnapshot(nil)
	if snap.Rebuilt() != f.EnsembleSize() {
		t.Fatalf("initial compile rebuilt %d trees, want all %d", snap.Rebuilt(), f.EnsembleSize())
	}
	if again := f.CompileSnapshot(snap); again != snap {
		t.Fatalf("no-op CompileSnapshot built a new snapshot instead of returning prev")
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
		next := f.CompileSnapshot(snap)
		if next.Rebuilt() != changed {
			t.Fatalf("rebuild re-flattened %d trees; exactly %d member trees changed", next.Rebuilt(), changed)
		}
		if changed == f.EnsembleSize() {
			t.Fatalf("every bagging weight was nonzero; the reuse path went unexercised (pick another seed)")
		}
		reused := 0
		for i := range next.trees {
			if next.trees[i] == snap.trees[i] {
				reused++
			}
		}
		if reused != f.EnsembleSize()-changed {
			t.Fatalf("%d member trees reused by pointer, want %d", reused, f.EnsembleSize()-changed)
		}
		snap = next
	}
}

// publishedPair is what the writer goroutine hands to readers: a
// snapshot plus the votes it produced for a probe at publication time.
// Readers re-evaluate the same probe on the same snapshot — any
// divergence means a published snapshot was mutated after publication
// (e.g. exposed a half-replaced ensemble member).
type publishedPair struct {
	snap  *Compiled
	probe []float64
	votes ml.Prediction
}

// TestCompiledSnapshotImmutableUnderConcurrentTraining races lock-free
// readers against a writer driving the forest through drift-induced
// tree replacements. Run under -race this also proves PredictInto
// touches no memory the writer mutates.
func TestCompiledSnapshotImmutableUnderConcurrentTraining(t *testing.T) {
	seg1 := gaussianStream(2000, 3, 8, 2.5, 41)
	seg2 := gaussianStream(2000, 3, 8, 2.5, 42)
	for i := range seg2 {
		seg2[i].Label = (seg2[i].Label + 1) % 3
	}
	data := append(append([]ml.Instance(nil), seg1...), seg2...)
	probes := gaussianStream(32, 3, 8, 2.5, 43)

	f := NewAdaptiveRandomForest(ARFConfig{
		NumClasses: 3, NumFeatures: 8, EnsembleSize: 5, Seed: 3,
		Tree: HTConfig{LeafPrediction: NaiveBayesAdaptive},
	})

	var published atomic.Pointer[publishedPair]
	var stop atomic.Bool
	var readersFailed atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst ml.Prediction
			var scratch []float64
			for !stop.Load() {
				p := published.Load()
				if p == nil {
					continue
				}
				if cap(dst) < p.snap.NumClasses() {
					dst = make(ml.Prediction, p.snap.NumClasses())
					scratch = make([]float64, p.snap.ScratchLen())
				}
				p.snap.PredictInto(dst[:p.snap.NumClasses()], scratch, p.probe)
				for c := range p.votes {
					if math.Float64bits(dst[c]) != math.Float64bits(p.votes[c]) {
						readersFailed.Add(1)
						return
					}
				}
			}
		}()
	}

	var snap *Compiled
	for i, in := range data {
		f.Train(in)
		if i%7 == 0 {
			snap = f.CompileSnapshot(snap)
			probe := probes[(i/7)%len(probes)].X
			published.Store(&publishedPair{snap: snap, probe: probe, votes: snap.Predict(probe)})
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := readersFailed.Load(); n != 0 {
		t.Fatalf("%d readers observed a published snapshot changing its votes", n)
	}
	if f.DriftStats().TreeReplacements == 0 {
		t.Fatalf("no drift replacements happened; the half-replaced-member hazard went unexercised")
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
