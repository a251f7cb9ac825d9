package stream

import (
	"maps"
	"slices"

	"redhanded/internal/ml"
)

// htLeafDelta is the task-local sufficient-statistics delta for one leaf:
// exactly the statistics a leaf maintains, accumulated separately so the
// driver can merge them into the global tree.
type htLeafDelta struct {
	classCounts []float64
	observers   []*gaussianObserver
	weight      float64
}

// htAccumulator implements ml.Accumulator for Hoeffding trees. It routes
// instances down a frozen view of the global tree and accumulates per-leaf
// deltas. The tree structure must not change between NewAccumulator and
// ApplyAccumulators; the engines guarantee this by training in micro-batch
// barriers.
type htAccumulator struct {
	tree   *HoeffdingTree
	deltas map[int64]*htLeafDelta
	count  int64
}

var _ ml.Accumulator = (*htAccumulator)(nil)

// NewAccumulator implements ml.DistributedClassifier.
func (t *HoeffdingTree) NewAccumulator() ml.Accumulator {
	return &htAccumulator{tree: t, deltas: make(map[int64]*htLeafDelta)}
}

// Observe implements ml.Accumulator.
func (a *htAccumulator) Observe(in ml.Instance) {
	if !in.IsLabeled() || in.Label >= a.tree.cfg.NumClasses || !in.Valid() {
		return
	}
	w := in.Weight
	if w <= 0 {
		w = 1
	}
	leaf := a.tree.sortingLeaf(in.X)
	d := a.deltas[leaf.id]
	if d == nil {
		d = &htLeafDelta{
			classCounts: make([]float64, a.tree.cfg.NumClasses),
			observers:   make([]*gaussianObserver, a.tree.cfg.NumFeatures),
		}
		a.deltas[leaf.id] = d
	}
	d.classCounts[in.Label] += w
	d.weight += w
	for f := range in.X {
		if d.observers[f] == nil {
			d.observers[f] = newGaussianObserver(a.tree.cfg.NumClasses)
		}
		d.observers[f].observe(in.X[f], in.Label, w)
	}
	a.count += int64(w)
}

// Count implements ml.Accumulator.
func (a *htAccumulator) Count() int64 { return a.count }

// ApplyAccumulators implements ml.DistributedClassifier: first merge every
// delta into its leaf, then attempt splits on the merged leaves in
// ascending leaf id, so twin trees fed one round number the new leaves
// alike. Deltas for leaves that no longer exist (stale accumulators) are
// dropped. A merged leaf is marked touched like a trained one, so the
// round's compile re-freezes only the merged leaves and those its splits
// created.
func (t *HoeffdingTree) ApplyAccumulators(accs []ml.Accumulator) {
	merged := make(map[int64]*htNode)
	mutated := false
	for _, raw := range accs {
		acc, ok := raw.(*htAccumulator)
		if !ok || acc.tree != t {
			continue
		}
		if acc.count != 0 || len(acc.deltas) > 0 {
			mutated = true
		}
		for id, d := range acc.deltas {
			leaf, ok := t.leaves[id]
			if !ok {
				continue
			}
			s := leaf.stats
			for c, cnt := range d.classCounts {
				s.classCounts[c] += cnt
			}
			s.weightSeen += d.weight
			for f, obs := range d.observers {
				if obs == nil {
					continue
				}
				if s.observers[f] == nil {
					s.observers[f] = newGaussianObserver(t.cfg.NumClasses)
				}
				s.observers[f].merge(obs)
			}
			t.touch(leaf)
			merged[id] = leaf
		}
		t.trainCount += acc.count
	}
	for _, id := range slices.Sorted(maps.Keys(merged)) {
		leaf := merged[id]
		s := leaf.stats
		if s.weightSeen-s.weightAtLastEval >= float64(t.cfg.GracePeriod) {
			s.weightAtLastEval = s.weightSeen
			t.attemptSplit(leaf)
		}
	}
	if mutated {
		t.epoch++
	}
}
