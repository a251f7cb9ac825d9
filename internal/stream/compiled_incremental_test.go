package stream

import (
	"math"
	"sync"
	"testing"

	"redhanded/internal/ml"
)

// The incremental compile is proven against the full flatten on twin
// models: training is deterministic, so two models fed the same stream
// are in the same state after every step. One twin recompiles through a
// chain of its own previous snapshots (the incremental path wherever the
// tree allows it), the other from nil every time (always a full
// flatten). A nil compile on the chained twin itself would make it the
// tree's latest compile and break the very chain under test.

// requireSnapshotsAgree compares two snapshots bit-for-bit on every probe,
// and the first against the live model it was compiled from.
func requireSnapshotsAgree(t *testing.T, tag string, inc, full *Compiled, live ml.Classifier, probes []ml.Instance) {
	t.Helper()
	got := make(ml.Prediction, inc.NumClasses())
	want := make(ml.Prediction, full.NumClasses())
	scratch := make([]float64, inc.ScratchLen())
	for i, p := range probes {
		inc.PredictInto(got, scratch, p.X)
		full.PredictInto(want, scratch, p.X)
		assertVotesIdentical(t, tag+"/inc-vs-full/probe"+itoa(i), got, want)
		assertVotesIdentical(t, tag+"/inc-vs-live/probe"+itoa(i), got, live.Predict(p.X))
	}
}

// sharesNodes reports whether next reuses prev's node array — the mark of
// the incremental path; a full flatten always builds its own.
func sharesNodes(prev, next *compiledTree) bool {
	return &next.nodes[0] == &prev.nodes[0]
}

// sharedLeafChunks counts the leaf chunks next shares with prev by pointer.
func sharedLeafChunks(prev, next *compiledTree) int {
	n := 0
	for i := range next.leaves {
		if i < len(prev.leaves) && next.leaves[i] == prev.leaves[i] {
			n++
		}
	}
	return n
}

func leafBlock(ct *compiledTree, slot int32) []float64 {
	return ct.leaves[slot>>leafChunkShift][slot&(leafChunkLen-1)]
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
			cfg := HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: tc.leaf, GracePeriod: 50}
			chained, fresh := NewHoeffdingTree(cfg), NewHoeffdingTree(cfg)
			data := gaussianStream(2500, 3, 8, 1.5, 7)
			snap := chained.CompileSnapshot(nil)
			incremental, full, flips := 0, 0, 0
			for i, in := range data {
				splits := chained.splitCount
				chained.Train(in)
				fresh.Train(in)
				prev := snap
				snap = chained.CompileSnapshot(prev)
				if snap.Epoch() != chained.Epoch() {
					t.Fatalf("step %d: snapshot epoch %d, model epoch %d", i, snap.Epoch(), chained.Epoch())
				}
				shared := sharedLeafChunks(prev.trees[0], snap.trees[0])
				if chained.splitCount != splits {
					full++
					if shared != 0 || sharesNodes(prev.trees[0], snap.trees[0]) {
						t.Fatalf("step %d: a split kept parts of the previous layout", i)
					}
				} else {
					incremental++
					if !sharesNodes(prev.trees[0], snap.trees[0]) {
						t.Fatalf("step %d: a non-splitting train step re-flattened the node array", i)
					}
					if shared != len(snap.trees[0].leaves)-1 {
						t.Fatalf("step %d: one touched leaf, but %d of %d leaf chunks shared", i, shared, len(snap.trees[0].leaves))
					}
				}
				if chained.splitCount == splits {
					// Majority-class blocks hold exactly one value per class.
					slot := chained.sortingLeaf(in.X).slot
					if (len(leafBlock(prev.trees[0], slot)) == 3) != (len(leafBlock(snap.trees[0], slot)) == 3) {
						flips++
					}
				}
				requireSnapshotsAgree(t, "ht/"+tc.name+"/"+itoa(i), snap, fresh.CompileSnapshot(nil), chained, probes)
			}
			if incremental == 0 || full == 0 {
				t.Fatalf("%d incremental and %d full compiles: both paths must run", incremental, full)
			}
			if tc.leaf == NaiveBayesAdaptive && flips == 0 {
				t.Fatalf("no leaf flipped between majority-class and naive-Bayes on the incremental path")
			}
		})
	}

	t.Run("apply-accumulators-and-restore", func(t *testing.T) {
		cfg := HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50}
		chained, fresh := NewHoeffdingTree(cfg), NewHoeffdingTree(cfg)
		data := gaussianStream(1800, 3, 8, 1.5, 17)
		snap := chained.CompileSnapshot(nil)
		step := func(tag string, mutate func(t *HoeffdingTree)) {
			mutate(chained)
			mutate(fresh)
			snap = chained.CompileSnapshot(snap)
			requireSnapshotsAgree(t, tag, snap, fresh.CompileSnapshot(nil), chained, probes)
		}
		mergesSplit, mergesKept := 0, 0
		for i, in := range data {
			in := in
			switch {
			case i%300 == 75 || i%300 == 150:
				// A micro-batch merge: several leaves move; a large batch
				// often splits some, a small one seldom does. A merge that
				// splits nothing keeps the incremental compile.
				batch := data[i : i+10]
				if i%300 == 150 {
					batch = data[i : i+120]
				}
				prev, splits := snap, chained.splitCount
				step("merge/"+itoa(i), func(t *HoeffdingTree) {
					acc := t.NewAccumulator()
					for _, b := range batch {
						acc.Observe(b)
					}
					t.ApplyAccumulators([]ml.Accumulator{acc})
				})
				split := chained.splitCount != splits
				if split == sharesNodes(prev.trees[0], snap.trees[0]) {
					t.Fatalf("merge at %d (split=%v) took the wrong compile path", i, split)
				}
				if split {
					mergesSplit++
				} else {
					mergesKept++
				}
			case i%300 == 299:
				step("restore/"+itoa(i), func(tr *HoeffdingTree) {
					blob, err := tr.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := tr.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
				})
			default:
				step("train/"+itoa(i), func(t *HoeffdingTree) { t.Train(in) })
			}
		}
		if mergesSplit == 0 || mergesKept == 0 {
			t.Fatalf("%d merges split and %d did not: both paths must run", mergesSplit, mergesKept)
		}
	})

	t.Run("arf-member-replacement", func(t *testing.T) {
		seg1 := gaussianStream(1500, 3, 8, 2.5, 11)
		seg2 := gaussianStream(1500, 3, 8, 2.5, 12)
		for i := range seg2 {
			seg2[i].Label = (seg2[i].Label + 1) % 3
		}
		cfg := ARFConfig{
			NumClasses: 3, NumFeatures: 8, EnsembleSize: 4, Seed: 3,
			Tree: HTConfig{LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50},
		}
		chained, fresh := NewAdaptiveRandomForest(cfg), NewAdaptiveRandomForest(cfg)
		snap := chained.CompileSnapshot(nil)
		incremental := 0
		for i, in := range append(seg1, seg2...) {
			chained.Train(in)
			fresh.Train(in)
			prev := snap
			snap = chained.CompileSnapshot(prev)
			for m := range snap.trees {
				if snap.trees[m] != prev.trees[m] && sharesNodes(prev.trees[m], snap.trees[m]) {
					incremental++
				}
			}
			requireSnapshotsAgree(t, "arf/"+itoa(i), snap, fresh.CompileSnapshot(nil), chained, probes[:12])
		}
		if chained.DriftStats().TreeReplacements == 0 {
			t.Fatalf("no member tree was replaced; the replacement fallback went unexercised")
		}
		if incremental == 0 {
			t.Fatalf("no ARF member ever compiled incrementally")
		}
	})

	t.Run("two-consumers", func(t *testing.T) {
		// Two consumers (the pipeline and an engine, say) each chain their
		// own prev against one tree. Whichever compiled last owns the
		// incremental path; the other's prev is refused and flattened in
		// full. Both must stay exact, in every interleaving.
		cfg := HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayes, GracePeriod: 50}
		shared, fresh := NewHoeffdingTree(cfg), NewHoeffdingTree(cfg)
		a, b := shared.CompileSnapshot(nil), shared.CompileSnapshot(nil)
		for i, in := range gaussianStream(900, 3, 8, 1.5, 23) {
			splits := shared.splitCount
			shared.Train(in)
			fresh.Train(in)
			want := fresh.CompileSnapshot(nil)
			switch i % 5 {
			case 0, 1: // a runs alone for two steps: refused, then incremental
				prev := a
				a = shared.CompileSnapshot(prev)
				if sharesNodes(prev.trees[0], a.trees[0]) != (i%5 == 1 && shared.splitCount == splits) {
					t.Fatalf("step %d: a took the wrong compile path", i)
				}
				requireSnapshotsAgree(t, "a/"+itoa(i), a, want, shared, probes)
			case 2: // b catches up over several train steps; a holds the latest compile
				prev := b
				b = shared.CompileSnapshot(prev)
				if sharesNodes(prev.trees[0], b.trees[0]) {
					t.Fatalf("step %d: b's stale prev was not refused", i)
				}
				requireSnapshotsAgree(t, "b/"+itoa(i), b, want, shared, probes)
			case 3: // both, a first
				a = shared.CompileSnapshot(a)
				b = shared.CompileSnapshot(b)
				requireSnapshotsAgree(t, "ab-a/"+itoa(i), a, want, shared, probes)
				requireSnapshotsAgree(t, "ab-b/"+itoa(i), b, want, shared, probes)
			default: // neither: the touched list carries over a step
			}
		}
	})
}

// TestIncrementalCompileRacingReaders publishes a chain of incremental
// snapshots while readers keep classifying on the older ones they hold.
// Snapshots share node arrays and leaf chunks, so under -race this proves
// a compile never writes memory a published snapshot can reach; the vote
// check proves the shared parts still say what they said at publication.
func TestIncrementalCompileRacingReaders(t *testing.T) {
	data := gaussianStream(4000, 3, 8, 1.5, 41)
	probes := gaussianStream(16, 3, 8, 1.5, 43)
	ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50})

	pub := make(chan publishedPair, 64) // readers lag the writer by at most this many snapshots
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []publishedPair
			dst := make(ml.Prediction, 3)
			scratch := make([]float64, 6)
			recheck := func(p publishedPair) {
				p.snap.PredictInto(dst, scratch, p.probe)
				for c := range dst {
					if math.Float64bits(dst[c]) != math.Float64bits(p.votes[c]) {
						t.Errorf("snapshot at epoch %d changed after publication: class %d votes %v, published %v",
							p.snap.Epoch(), c, dst[c], p.votes[c])
						return
					}
				}
			}
			for p := range pub {
				held = append(held, p)
				if len(held) > 32 {
					held = held[1:]
				}
				for _, h := range held {
					recheck(h)
				}
			}
		}()
	}

	var snap *Compiled
	for i, in := range data {
		ht.Train(in)
		snap = ht.CompileSnapshot(snap)
		probe := probes[i%len(probes)].X
		pub <- publishedPair{snap: snap, probe: probe, votes: snap.Predict(probe)}
	}
	close(pub)
	wg.Wait()
	if ht.splitCount == 0 {
		t.Fatalf("tree never split")
	}
}
