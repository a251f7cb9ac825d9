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

// sharesNodes reports whether next was built on prev's node array — the
// mark of the incremental path, which appends a split's path copies to
// it; a full flatten builds its own.
func sharesNodes(prev, next *compiledTree) bool {
	return &next.nodes[0] == &prev.nodes[0]
}

// pathCopies returns the nodes an incremental compile appends for the
// leaves among these that have split since: two new leaves and a copy of
// each node on the path from the split one up to the root.
func pathCopies(leaves ...*htNode) int {
	n, seen := 0, make(map[*htNode]bool)
	for _, l := range leaves {
		if !l.isLeaf() && !seen[l] {
			seen[l] = true
			n += l.depth + 3
		}
	}
	return n
}

// requireNodePath checks how next's node array derives from prev's after
// the leaves were trained: shared, and extended by exactly the path
// copies of the leaves that split, or, only when splits no longer fit it,
// a fresh array of a full flatten (which compacts the arena too).
func requireNodePath(t *testing.T, tag string, prev, next *compiledTree, leaves ...*htNode) (flattened bool) {
	t.Helper()
	want := len(prev.nodes) + pathCopies(leaves...)
	switch {
	case sharesNodes(prev, next) && len(next.nodes) == want:
		return false
	case !sharesNodes(prev, next) && want > len(prev.nodes) && compacted(next):
		return true
	}
	t.Fatalf("%s: %d nodes shared=%v after %d, want %d appended to a shared array or a full flatten after a split",
		tag, len(next.nodes), sharesNodes(prev, next), len(prev.nodes), want-len(prev.nodes))
	return false
}

// compacted reports whether next, just compiled, moved the live leaf
// blocks into a fresh arena: only then does its arena hold no dead block.
// (An incremental compile that re-freezes a leaf leaves its old block
// dead.)
func compacted(next *compiledTree) bool {
	return len(next.arena) == next.src.arenaLive
}

// chunkOf returns the chunk leaf table entry ci of ct names.
func chunkOf(ct *compiledTree, ci int) *leafChunk {
	return &ct.chunks[ct.table[ci]]
}

// requireSharedChunks checks the incremental compile's sharing contract:
// next shares every one of prev's leaf chunks except those holding a slot
// in rewritten, or none at all when it started a fresh chunk array (a
// compaction, or chunk copies that outgrew the old one).
func requireSharedChunks(t *testing.T, tag string, prev, next *compiledTree, rewritten map[int32]bool) {
	t.Helper()
	all := &next.chunks[0] != &prev.chunks[0]
	if compacted(next) && !all {
		t.Fatalf("%s: the arena was compacted but the chunks were not moved", tag)
	}
	for ci := range prev.table {
		if shared := chunkOf(next, ci) == chunkOf(prev, ci); shared == (all || rewritten[int32(ci)]) {
			t.Fatalf("%s: leaf chunk %d of %d shared=%v (rewritten %v, fresh chunk array %v)", tag, ci, len(prev.table), shared, rewritten, all)
		}
	}
}

// rewrittenChunks returns the chunks a compile must rewrite after leaves
// were trained: each leaf's own and, for a leaf that split since, that of
// its right child's fresh slot (its left child took the leaf's slot).
func rewrittenChunks(leaves ...*htNode) map[int32]bool {
	out := make(map[int32]bool)
	for _, l := range leaves {
		out[l.slot>>leafChunkShift] = true
		if !l.isLeaf() {
			out[l.right.slot>>leafChunkShift] = true
		}
	}
	return out
}

func leafBlock(ct *compiledTree, slot int32) []float64 {
	ref := chunkOf(ct, int(slot>>leafChunkShift))[slot&(leafChunkLen-1)]
	return ct.arena[ref.off : ref.off+ref.n]
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
			kept, split, flattened, compactions, flips := 0, 0, 0, 0, 0
			for i, in := range data {
				splits := chained.splitCount
				leaf := chained.sortingLeaf(in.X)
				chained.Train(in)
				fresh.Train(in)
				prev := snap
				snap = chained.CompileSnapshot(prev)
				if snap.Epoch() != chained.Epoch() {
					t.Fatalf("step %d: snapshot epoch %d, model epoch %d", i, snap.Epoch(), chained.Epoch())
				}
				// A split appends its path copies to the node array; every
				// step shares every chunk the trained leaf (or the two that
				// replaced it) does not sit in.
				p, n := prev.trees[0], snap.trees[0]
				if requireNodePath(t, "step "+itoa(i), p, n, leaf) {
					flattened++
				}
				if chained.splitCount != splits {
					split++
				} else {
					kept++
				}
				if compacted(n) {
					compactions++
				}
				requireSharedChunks(t, "step "+itoa(i), p, n, rewrittenChunks(leaf))
				if chained.splitCount == splits {
					// Majority-class blocks hold exactly one value per class.
					slot := chained.sortingLeaf(in.X).slot
					if (len(leafBlock(prev.trees[0], slot)) == 3) != (len(leafBlock(snap.trees[0], slot)) == 3) {
						flips++
					}
				}
				requireSnapshotsAgree(t, "ht/"+tc.name+"/"+itoa(i), snap, fresh.CompileSnapshot(nil), chained, probes)
			}
			if kept == 0 || split == flattened || compactions == flattened {
				t.Fatalf("%d non-splitting steps, %d splits (%d flattened) and %d compactions: every path must run", kept, split, flattened, compactions)
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
				var merged []*htNode
				for _, b := range batch {
					merged = append(merged, chained.sortingLeaf(b.X))
				}
				step("merge/"+itoa(i), func(t *HoeffdingTree) {
					acc := t.NewAccumulator()
					for _, b := range batch {
						acc.Observe(b)
					}
					t.ApplyAccumulators([]ml.Accumulator{acc})
				})
				split := chained.splitCount != splits
				p, n := prev.trees[0], snap.trees[0]
				requireNodePath(t, "merge/"+itoa(i), p, n, merged...)
				requireSharedChunks(t, "merge/"+itoa(i), p, n, rewrittenChunks(merged...))
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

	t.Run("apply-accumulators-splitting-several", func(t *testing.T) {
		// Rounds large enough to split several leaves at once append every
		// split's path copies (TestHTMergeSplitsInLeafOrder fixes the order
		// they split in), or flatten the tree when they do not fit.
		cfg := HTConfig{NumClasses: 3, NumFeatures: 6, GracePeriod: 50}
		chained, fresh := NewHoeffdingTree(cfg), NewHoeffdingTree(cfg)
		snap := chained.CompileSnapshot(nil)
		for _, in := range gaussianStream(3000, 3, 6, 1.5, 31) {
			chained.Train(in)
			fresh.Train(in)
			snap = chained.CompileSnapshot(snap)
		}
		probes := gaussianStream(60, 3, 6, 1.5, 8)
		several, flattened := 0, 0
		for r, size := range []int{400, 600, 800, 1200, 1600, 6000} {
			round := gaussianStream(size, 3, 6, 1.5, uint64(32+r))
			var merged []*htNode
			for _, in := range round {
				merged = append(merged, chained.sortingLeaf(in.X))
			}
			prev, splits := snap, chained.splitCount
			for _, tree := range []*HoeffdingTree{chained, fresh} {
				acc := tree.NewAccumulator()
				for _, in := range round {
					acc.Observe(in)
				}
				tree.ApplyAccumulators([]ml.Accumulator{acc})
			}
			snap = chained.CompileSnapshot(prev)
			p, c := prev.trees[0], snap.trees[0]
			if requireNodePath(t, "round "+itoa(r), p, c, merged...) {
				flattened++
			} else if chained.splitCount-splits > 1 {
				several++
			}
			requireSharedChunks(t, "round "+itoa(r), p, c, rewrittenChunks(merged...))
			requireSnapshotsAgree(t, "round "+itoa(r), snap, fresh.CompileSnapshot(nil), chained, probes)
		}
		if several == 0 || flattened == 0 {
			t.Fatalf("%d rounds appended several splits and %d flattened: both paths must run", several, flattened)
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
				incremental := sharesNodes(prev.trees[0], a.trees[0])
				if incremental != (i%5 == 1) && !(i%5 == 1 && shared.splitCount != splits && compacted(a.trees[0])) {
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

// TestIncrementalCompileReadersHoldAcrossCompaction: readers keep
// classifying on one snapshot while the trainer compiles past several
// arena compactions (and splits that append to the node array the held
// snapshot reads a prefix of). Under -race this proves neither writes
// memory the held snapshot reaches; the votes prove it still says what
// it said at publication.
func TestIncrementalCompileReadersHoldAcrossCompaction(t *testing.T) {
	data := gaussianStream(6000, 3, 8, 1.5, 47)
	probes := gaussianStream(16, 3, 8, 1.5, 49)
	ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, LeafPrediction: NaiveBayesAdaptive, GracePeriod: 50})
	var held *Compiled
	for _, in := range data[:2000] {
		ht.Train(in)
		held = ht.CompileSnapshot(held)
	}
	want := make([]ml.Prediction, len(probes))
	for i, p := range probes {
		want[i] = held.Predict(p.X)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(ml.Prediction, 3)
			scratch := make([]float64, 6)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				p := n % len(probes)
				held.PredictInto(dst, scratch, probes[p].X)
				for c := range dst {
					if math.Float64bits(dst[c]) != math.Float64bits(want[p][c]) {
						t.Errorf("held snapshot changed: probe %d class %d votes %v, published %v", p, c, dst[c], want[p][c])
						return
					}
				}
			}
		}()
	}

	snap, compactions, splits := held, 0, ht.splitCount
	for _, in := range data[2000:] {
		ht.Train(in)
		snap = ht.CompileSnapshot(snap)
		if compacted(snap.trees[0]) {
			compactions++
		}
	}
	close(stop)
	wg.Wait()
	if compactions < 3 || ht.splitCount == splits {
		t.Fatalf("%d compactions and %d splits behind the held snapshot, want at least 3 and 1", compactions, ht.splitCount-splits)
	}
}

// TestIncrementalCompileArenaBounded holds the arena of a tree trained
// for a long time without splitting to its compaction bound after every
// compile: at most twice the values its leaves use plus arenaSlack, with
// arenaLive equal to what the leaf table points at. For majority-class
// leaves, whose blocks never change size, the capacity stays within what
// a compaction gives it too, so the arena never grows between them.
func TestIncrementalCompileArenaBounded(t *testing.T) {
	data := gaussianStream(20000, 3, 8, 0.7, 53)
	for _, mode := range []LeafPrediction{MajorityClass, NaiveBayesAdaptive} {
		ht := NewHoeffdingTree(HTConfig{NumClasses: 3, NumFeatures: 8, GracePeriod: 20, MaxDepth: 64, LeafPrediction: mode})
		snap := ht.CompileSnapshot(nil)
		for i := 0; ht.NumNodes() < 200; i++ {
			ht.Train(data[i%len(data)])
			snap = ht.CompileSnapshot(snap)
		}
		ht.cfg.GracePeriod = math.MaxInt32
		compactions := 0
		for i := range data {
			ht.Train(data[i])
			snap = ht.CompileSnapshot(snap)
			ct := snap.trees[0]
			if compacted(ct) {
				compactions++
			}
			live := 0
			for _, leaf := range ht.leaves {
				live += len(leafBlock(ct, leaf.slot))
			}
			if live != ht.arenaLive {
				t.Fatalf("mode %d step %d: leaves use %d arena values, arenaLive says %d", mode, i, live, ht.arenaLive)
			}
			if bound := 2*live + arenaSlack; len(ht.arena) > bound {
				t.Fatalf("mode %d step %d: arena holds %d values, bound %d", mode, i, len(ht.arena), bound)
			}
			if mode == MajorityClass && cap(ht.arena) > 2*live+2*arenaSlack {
				t.Fatalf("mode %d step %d: arena capacity %d for %d live values", mode, i, cap(ht.arena), live)
			}
		}
		if compactions < 3 {
			t.Fatalf("mode %d: %d compactions in %d steps, want at least 3", mode, compactions, len(data))
		}
	}
}
