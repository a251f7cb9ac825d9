package stream

import (
	"math"
	"slices"
	"sync"
	"testing"

	"redhanded/internal/ml"
)

// The in-place compile is proven against a fresh flatten: after every
// step, a model's compiled form must vote bit-for-bit like the first
// compile of a copy made by a marshal/unmarshal round trip (a restored
// model has never been compiled, so that compile flattens it whole) and
// like the live model.

// requireMatchesFreshFlatten checks c, m's compiled form, against a fresh
// flatten of a round-trip copy of m and against m itself on every probe.
func requireMatchesFreshFlatten(t *testing.T, tag string, c *Compiled, m Model, probes []ml.Instance) {
	t.Helper()
	if c.Epoch() != m.Epoch() {
		t.Fatalf("%s: compiled at epoch %d, model at %d", tag, c.Epoch(), m.Epoch())
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	kind, err := ModelKindOf(m)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeModel(kind, blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh := cp.CompileSnapshot(nil)
	if c.NumTrees() != fresh.NumTrees() || c.NumNodes() != fresh.NumNodes() {
		t.Fatalf("%s: %d trees of %d nodes in place, %d of %d flattened afresh", tag, c.NumTrees(), c.NumNodes(), fresh.NumTrees(), fresh.NumNodes())
	}
	got := make(ml.Prediction, c.NumClasses())
	want := make(ml.Prediction, fresh.NumClasses())
	scratch := make([]float64, c.ScratchLen())
	for i, p := range probes {
		c.PredictInto(got, scratch, p.X)
		fresh.PredictInto(want, scratch, p.X)
		assertVotesIdentical(t, tag+"/in-place-vs-fresh/probe"+itoa(i), got, want)
		assertVotesIdentical(t, tag+"/in-place-vs-live/probe"+itoa(i), got, m.Predict(p.X))
	}
}

// treeState is a copy of a compiled tree's arrays, taken before a step.
type treeState struct {
	nodes []cnode
	arena []float64
}

func stateOf(ht *HoeffdingTree) treeState {
	return treeState{slices.Clone(ht.flat.nodes), slices.Clone(ht.flat.arena)}
}

// leafBlock returns the frozen block of one of ht's leaves.
func leafBlock(ht *HoeffdingTree, leaf *htNode) []float64 {
	nd := ht.flat.nodes[leaf.cidx]
	return ht.flat.arena[nd.left : nd.left+nd.right]
}

// requireInPlace checks that the compile after a step wrote nothing but
// what the step changed: the nodes and blocks of leaves (the leaves
// trained or merged, taken before the step), and two appended nodes and
// one appended block per split. It also holds the arrays to exactly the
// tree's nodes and one block per leaf.
func requireInPlace(t *testing.T, tag string, ht *HoeffdingTree, before treeState, splits int, leaves ...*htNode) {
	t.Helper()
	ct := &ht.flat
	if len(ct.nodes) != ht.NumNodes() || len(ct.arena) != ht.NumLeaves()*ct.block {
		t.Fatalf("%s: %d nodes and %d arena values for %d nodes and %d leaves of %d", tag,
			len(ct.nodes), len(ct.arena), ht.NumNodes(), ht.NumLeaves(), ct.block)
	}
	if len(ct.nodes) != len(before.nodes)+2*splits {
		t.Fatalf("%s: %d nodes after %d and %d splits", tag, len(ct.nodes), len(before.nodes), splits)
	}
	nodes, blocks := make(map[int32]bool), make(map[int]bool)
	for _, l := range leaves {
		nodes[l.cidx] = true
		blocks[int(before.nodes[l.cidx].left)] = true
	}
	for i, nd := range before.nodes {
		if nd != ct.nodes[i] && !nodes[int32(i)] {
			t.Fatalf("%s: node %d changed (%+v -> %+v) and belongs to no leaf the step changed", tag, i, nd, ct.nodes[i])
		}
	}
	for j, v := range before.arena {
		if math.Float64bits(v) != math.Float64bits(ct.arena[j]) && !blocks[j/ct.block*ct.block] {
			t.Fatalf("%s: arena value %d changed and belongs to no leaf the step changed", tag, j)
		}
	}
}

func TestIncrementalCompileEqualsFullFlatten(t *testing.T) {
	probes := gaussianStream(60, 3, 8, 1.5, 8)
	for _, tc := range []struct {
		name string
		leaf LeafPrediction
	}{
		{"majority-class", MajorityClass},
		{"naive-bayes", NaiveBayes},
		{"naive-bayes-adaptive", NaiveBayesAdaptive},
	} {
		t.Run("ht/"+tc.name, func(t *testing.T) {
			ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: tc.leaf, GracePeriod: 50})
			data := gaussianStream(2500, 3, 8, 1.5, 7)
			requireMatchesFreshFlatten(t, "initial", ht.CompileSnapshot(nil), ht, probes)
			kept, split, flips := 0, 0, 0
			for i, in := range data {
				tag := "step " + itoa(i)
				splits := ht.splitCount
				leaf := ht.sortingLeaf(in.X)
				before := stateOf(ht)
				majority := len(leafBlock(ht, leaf)) == 3
				ht.Train(in)
				requireMatchesFreshFlatten(t, tag, ht.CompileSnapshot(nil), ht, probes)
				requireInPlace(t, tag, ht, before, int(ht.splitCount-splits), leaf)
				if ht.splitCount != splits {
					split++
					continue
				}
				kept++
				// Majority-class blocks hold exactly one value per class.
				if majority != (len(leafBlock(ht, leaf)) == 3) {
					flips++
				}
			}
			if kept == 0 || split == 0 {
				t.Fatalf("%d non-splitting steps and %d splits: both paths must run", kept, split)
			}
			if tc.leaf == NaiveBayesAdaptive && flips == 0 {
				t.Fatalf("no leaf flipped between majority-class and naive-Bayes in place")
			}
		})
	}

	t.Run("apply-accumulators-and-restore", func(t *testing.T) {
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50})
		data := gaussianStream(1800, 3, 8, 1.5, 17)
		ht.CompileSnapshot(nil)
		mergesSplit, mergesKept, restores := 0, 0, 0
		for i, in := range data {
			tag := itoa(i)
			switch {
			case i%300 == 75 || i%300 == 150:
				// A micro-batch merge: several leaves move; a large batch
				// often splits some, a small one seldom does.
				batch := data[i : i+10]
				if i%300 == 150 {
					batch = data[i : i+120]
				}
				before, splits := stateOf(ht), ht.splitCount
				var merged []*htNode
				acc := ht.NewAccumulator()
				for _, b := range batch {
					merged = append(merged, ht.sortingLeaf(b.X))
					acc.Observe(b)
				}
				ht.ApplyAccumulators([]ml.Accumulator{acc})
				requireMatchesFreshFlatten(t, "merge/"+tag, ht.CompileSnapshot(nil), ht, probes)
				requireInPlace(t, "merge/"+tag, ht, before, int(ht.splitCount-splits), merged...)
				if ht.splitCount != splits {
					mergesSplit++
				} else {
					mergesKept++
				}
			case i%300 == 299:
				blob, err := ht.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := ht.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				c := ht.CompileSnapshot(nil)
				if c.Rebuilt() != 1 || len(ht.flat.nodes) != ht.NumNodes() {
					t.Fatalf("restore/%s: the compile after a restore did not flatten the tree", tag)
				}
				requireMatchesFreshFlatten(t, "restore/"+tag, c, ht, probes)
				restores++
			default:
				ht.Train(in)
				requireMatchesFreshFlatten(t, "train/"+tag, ht.CompileSnapshot(nil), ht, probes)
			}
		}
		if mergesSplit == 0 || mergesKept == 0 || restores == 0 {
			t.Fatalf("%d merges split, %d did not and %d restores: every path must run", mergesSplit, mergesKept, restores)
		}
	})

	t.Run("apply-accumulators-splitting-several", func(t *testing.T) {
		// Rounds large enough to split several leaves at once lay every
		// split into the node array in the order they split
		// (TestHTMergeSplitsInLeafOrder fixes that order).
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 6, GracePeriod: 50})
		ht.CompileSnapshot(nil)
		for _, in := range gaussianStream(3000, 3, 6, 1.5, 31) {
			ht.Train(in)
			ht.CompileSnapshot(nil)
		}
		probes := gaussianStream(60, 3, 6, 1.5, 8)
		several := 0
		for r, size := range []int{400, 600, 800, 1200, 1600, 6000} {
			round := gaussianStream(size, 3, 6, 1.5, uint64(32+r))
			before, splits := stateOf(ht), ht.splitCount
			var merged []*htNode
			acc := ht.NewAccumulator()
			for _, in := range round {
				merged = append(merged, ht.sortingLeaf(in.X))
				acc.Observe(in)
			}
			ht.ApplyAccumulators([]ml.Accumulator{acc})
			requireMatchesFreshFlatten(t, "round "+itoa(r), ht.CompileSnapshot(nil), ht, probes)
			requireInPlace(t, "round "+itoa(r), ht, before, int(ht.splitCount-splits), merged...)
			if ht.splitCount-splits > 1 {
				several++
			}
		}
		if several == 0 {
			t.Fatalf("no round split several leaves at once")
		}
	})

	t.Run("arf-member-replacement", func(t *testing.T) {
		seg1 := gaussianStream(700, 3, 8, 2.5, 11)
		seg2 := gaussianStream(700, 3, 8, 2.5, 12)
		for i := range seg2 {
			seg2[i].Label = (seg2[i].Label + 1) % 3
		}
		f := NewAdaptiveRandomForest(ARFConfig{
			NumClasses: 3, NumFeatures: 8, EnsembleSize: 4, Seed: 3,
			Tree: HTConfig{LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50},
		})
		f.CompileSnapshot(nil)
		inPlace := 0
		for i, in := range append(seg1, seg2...) {
			f.Train(in)
			for _, m := range f.members {
				if len(m.tree.flat.nodes) > 0 && len(m.tree.touched) > 0 {
					inPlace++
				}
			}
			requireMatchesFreshFlatten(t, "arf/"+itoa(i), f.CompileSnapshot(nil), f, probes[:12])
		}
		if f.DriftStats().TreeReplacements == 0 {
			t.Fatalf("no member tree was replaced; the replacement flatten went unexercised")
		}
		if inPlace == 0 {
			t.Fatalf("no ARF member ever compiled in place")
		}
	})

	t.Run("two-consumers", func(t *testing.T) {
		// Two consumers (the pipeline and a bench harness, say) compiling
		// one model get its one compiled form, which stays exact in every
		// interleaving, including train steps no one compiled after: the
		// touched list carries over to the next compile.
		shared := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayes, GracePeriod: 50})
		a := shared.CompileSnapshot(nil)
		for i, in := range gaussianStream(900, 3, 8, 1.5, 23) {
			shared.Train(in)
			var got []*Compiled
			switch i % 5 {
			case 0, 1: // a alone
				got = append(got, shared.CompileSnapshot(a))
			case 2: // b alone
				got = append(got, shared.CompileSnapshot(nil))
			case 3: // both, a first
				got = append(got, shared.CompileSnapshot(a), shared.CompileSnapshot(nil))
			default: // neither
			}
			for _, c := range got {
				if c != a {
					t.Fatalf("step %d: two compiles of one model returned two forms", i)
				}
				requireMatchesFreshFlatten(t, "step "+itoa(i), c, shared, probes)
			}
		}
	})
}

// TestIncrementalCompileRacingReaders shares each in-place compile with
// concurrent readers while nothing compiles, as computeShare's phase 2
// does: the trainer trains and compiles, then readers classify on the
// one compiled form and the trainer waits for them before its next step.
// Under -race this proves PredictInto writes nothing the readers share
// and that the hand-off orders each compile before its reads; the votes
// prove every reader sees the compile it was handed.
func TestIncrementalCompileRacingReaders(t *testing.T) {
	data := gaussianStream(1500, 3, 8, 1.5, 41)
	probes := gaussianStream(16, 3, 8, 1.5, 43)
	ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50})
	want := make([]ml.Prediction, len(probes))
	for _, in := range data {
		ht.Train(in)
		c := ht.CompileSnapshot(nil)
		for i, p := range probes {
			want[i] = ht.Predict(p.X)
		}
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make(ml.Prediction, 3)
				scratch := make([]float64, 6)
				for i, p := range probes {
					c.PredictInto(dst, scratch, p.X)
					for cl := range dst {
						if math.Float64bits(dst[cl]) != math.Float64bits(want[i][cl]) {
							t.Errorf("epoch %d probe %d: class %d votes %v, live model %v", c.Epoch(), i, cl, dst[cl], want[i][cl])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if ht.splitCount == 0 {
		t.Fatalf("tree never split")
	}
}

// TestIncrementalCompileArenaBounded holds a tree's compiled form to its
// exact size after every compile: one node per tree node and one block
// per leaf, so nothing dead accumulates however long the tree trains.
// Once the tree stops splitting, the arrays neither grow nor move.
func TestIncrementalCompileArenaBounded(t *testing.T) {
	data := gaussianStream(20000, 3, 8, 0.7, 53)
	for _, mode := range []LeafPrediction{MajorityClass, NaiveBayesAdaptive} {
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 20, MaxDepth: 64, LeafPrediction: mode})
		ht.CompileSnapshot(nil)
		exact := func(step int) {
			ct := &ht.flat
			if len(ct.nodes) != ht.NumNodes() || len(ct.arena) != ht.NumLeaves()*ct.block {
				t.Fatalf("mode %d step %d: %d nodes and %d arena values for %d nodes and %d leaves of %d",
					mode, step, len(ct.nodes), len(ct.arena), ht.NumNodes(), ht.NumLeaves(), ct.block)
			}
		}
		for i := 0; ht.NumNodes() < 200; i++ {
			ht.Train(data[i%len(data)])
			ht.CompileSnapshot(nil)
			exact(i)
		}
		ht.cfg.GracePeriod = math.MaxInt32
		nodes, arena := &ht.flat.nodes[0], &ht.flat.arena[0]
		for i := range data {
			ht.Train(data[i])
			ht.CompileSnapshot(nil)
			exact(i)
			if &ht.flat.nodes[0] != nodes || &ht.flat.arena[0] != arena {
				t.Fatalf("mode %d step %d: a compile without a split moved the arrays", mode, i)
			}
		}
	}
}
