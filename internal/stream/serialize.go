package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"redhanded/internal/ml"
	"redhanded/internal/norm"
)

// Serialization support for distributed execution: the micro-batch engines
// broadcast the global model to tasks/executors each batch (the paper notes
// the serialized global model stays under 1 MB) and ship the local
// sufficient-statistic deltas back for merging. This file holds the
// Hoeffding-tree and SLR encodings; the ARF encoding lives in
// arf_serialize.go, and the kind switch the transport layers go through is
// in codec.go.

// RemoteTrainable is a streaming model that can cross process boundaries:
// it serializes its full state (broadcast), restores it (executor side),
// and reconstitutes accumulator deltas produced remotely.
type RemoteTrainable interface {
	ml.DistributedClassifier
	// Kind returns the model's stable wire tag (see codec.go).
	Kind() string
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	// AccumulatorFromState rebuilds a remote accumulator delta so it can
	// be passed to ApplyAccumulators on the global model.
	AccumulatorFromState(data []byte) (ml.Accumulator, error)
}

// StatefulAccumulator is an accumulator whose delta can be serialized and
// shipped to the driver.
type StatefulAccumulator interface {
	ml.Accumulator
	State() ([]byte, error)
}

// --- Hoeffding tree ---

// htNodeState is the gob DTO for one tree node (pre-order encoding).
type htNodeState struct {
	ID        int64
	Depth     int
	Leaf      bool
	Feature   int
	Threshold float64
	// Leaf payload: observers are sparse (nil until a feature is seen), so
	// only present ones are encoded, keyed by feature index.
	ClassCounts      []float64
	ObsIdx           []int
	Obs              []ObserverState
	WeightSeen       float64
	WeightAtLastEval float64
	MCCorrect        float64
	NBCorrect        float64
}

// ObserverState is the gob DTO for a Gaussian attribute observer.
type ObserverState struct {
	PerClass []norm.Welford
	Range    norm.RangeStat
}

// htState is the gob DTO for a whole tree.
type htState struct {
	Cfg        HTConfig
	Nodes      []htNodeState // pre-order
	NextID     int64
	TrainCount int64
	SplitCount int64
}

// Version identifies the tree structure: it changes on every split, so
// accumulators can be validated against the structure they were built for.
func (t *HoeffdingTree) Version() int64 { return t.splitCount }

// MarshalBinary implements encoding.BinaryMarshaler via a pre-order gob
// encoding of the tree.
func (t *HoeffdingTree) MarshalBinary() ([]byte, error) {
	st := htState{
		Cfg:        t.cfg,
		NextID:     t.nextID,
		TrainCount: t.trainCount,
		SplitCount: t.splitCount,
	}
	var walk func(n *htNode)
	walk = func(n *htNode) {
		ns := htNodeState{ID: n.id, Depth: n.depth, Leaf: n.isLeaf()}
		if n.isLeaf() {
			s := n.stats
			ns.ClassCounts = s.classCounts
			ns.WeightSeen = s.weightSeen
			ns.WeightAtLastEval = s.weightAtLastEval
			ns.MCCorrect = s.mcCorrect
			ns.NBCorrect = s.nbCorrect
			for i, o := range s.observers {
				if o != nil {
					ns.ObsIdx = append(ns.ObsIdx, i)
					ns.Obs = append(ns.Obs, ObserverState{PerClass: o.PerClass, Range: o.Range})
				}
			}
			st.Nodes = append(st.Nodes, ns)
			return
		}
		ns.Feature = n.feature
		ns.Threshold = n.threshold
		st.Nodes = append(st.Nodes, ns)
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("stream: encode hoeffding tree: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores the tree state in place. The encoding is
// checked against its own configuration first — class and feature counts,
// leaf payload shapes, split features, split count — so a malformed blob
// is an error and leaves the tree untouched, and an accepted one always
// compiles and predicts.
func (t *HoeffdingTree) UnmarshalBinary(data []byte) error {
	var st htState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode hoeffding tree: %w", err)
	}
	k, nf := st.Cfg.NumClasses, st.Cfg.NumFeatures
	if err := checkDims(k, nf); err != nil {
		return err
	}
	for _, f := range st.Cfg.FeatureSubset {
		if f < 0 || f >= nf {
			return fmt.Errorf("stream: tree feature subset holds %d of %d features", f, nf)
		}
	}
	leaves := make(map[int64]*htNode)
	pos, splits := 0, int64(0)
	var build func() (*htNode, error)
	build = func() (*htNode, error) {
		if pos >= len(st.Nodes) {
			return nil, fmt.Errorf("stream: truncated tree encoding")
		}
		ns := st.Nodes[pos]
		pos++
		n := &htNode{id: ns.ID, depth: ns.Depth}
		if ns.Leaf {
			obs, err := decodeLeaf(ns.ClassCounts, ns.ObsIdx, ns.Obs, k, nf)
			if err != nil {
				return nil, err
			}
			n.stats = &leafStats{
				classCounts:      ns.ClassCounts,
				observers:        obs,
				weightSeen:       ns.WeightSeen,
				weightAtLastEval: ns.WeightAtLastEval,
				mcCorrect:        ns.MCCorrect,
				nbCorrect:        ns.NBCorrect,
			}
			leaves[n.id] = n
			return n, nil
		}
		if ns.Feature < 0 || ns.Feature >= nf {
			return nil, fmt.Errorf("stream: tree splits on feature %d of %d", ns.Feature, nf)
		}
		splits++
		n.feature = ns.Feature
		n.threshold = ns.Threshold
		var err error
		if n.left, err = build(); err != nil {
			return nil, err
		}
		if n.right, err = build(); err != nil {
			return nil, err
		}
		n.left.parent, n.right.parent = n, n
		return n, nil
	}
	root, err := build()
	if err != nil {
		return err
	}
	if pos != len(st.Nodes) {
		return fmt.Errorf("stream: trailing nodes in tree encoding")
	}
	if splits != st.SplitCount {
		return fmt.Errorf("stream: tree encoding has %d splits, claims %d", splits, st.SplitCount)
	}
	t.cfg = st.Cfg
	t.nextID = st.NextID
	t.trainCount = st.TrainCount
	t.splitCount = st.SplitCount
	t.leaves = leaves
	t.root = root
	t.scratch = make([]float64, 2*k)
	t.epoch++ // the whole tree was rebuilt: invalidate compiled snapshots
	t.dropCompiled()
	return nil
}

// maxDim bounds the class and feature counts a decoded model or delta
// sizes its slices by (feature.NumFeatures is 17), so a corrupt
// count cannot demand an arbitrarily large allocation per leaf.
const maxDim = 1 << 10

// checkDims validates a decoded model's class and feature counts.
func checkDims(numClasses, numFeatures int) error {
	if numClasses < 2 || numClasses > maxDim || numFeatures < 1 || numFeatures > maxDim {
		return fmt.Errorf("stream: encoding has %d classes and %d features", numClasses, numFeatures)
	}
	return nil
}

// decodeLeaf checks one encoded leaf payload — a tree leaf or a leaf
// delta — against the receiving tree's class and feature counts and
// returns its sparse observers indexed by feature.
func decodeLeaf(counts []float64, idx []int, obs []ObserverState, numClasses, numFeatures int) ([]*gaussianObserver, error) {
	if len(counts) != numClasses || len(idx) != len(obs) {
		return nil, fmt.Errorf("stream: leaf has %d class counts and %d indexes for %d observers (%d classes)",
			len(counts), len(idx), len(obs), numClasses)
	}
	out := make([]*gaussianObserver, numFeatures)
	for k, f := range idx {
		if f < 0 || f >= numFeatures || len(obs[k].PerClass) != numClasses {
			return nil, fmt.Errorf("stream: leaf observer for feature %d has %d classes (want %d classes, %d features)",
				f, len(obs[k].PerClass), numClasses, numFeatures)
		}
		out[f] = &gaussianObserver{PerClass: obs[k].PerClass, Range: obs[k].Range}
	}
	return out, nil
}

// htDeltaState is the gob DTO of an accumulator delta.
type htDeltaState struct {
	Version int64
	Count   int64
	LeafIDs []int64
	Deltas  []htLeafDeltaState
}

type htLeafDeltaState struct {
	ClassCounts []float64
	ObsIdx      []int
	Obs         []ObserverState
	Weight      float64
}

// State implements StatefulAccumulator.
func (a *htAccumulator) State() ([]byte, error) {
	st := htDeltaState{Version: a.tree.Version(), Count: a.count}
	for id, d := range a.deltas {
		ds := htLeafDeltaState{ClassCounts: d.classCounts, Weight: d.weight}
		for i, o := range d.observers {
			if o != nil {
				ds.ObsIdx = append(ds.ObsIdx, i)
				ds.Obs = append(ds.Obs, ObserverState{PerClass: o.PerClass, Range: o.Range})
			}
		}
		st.LeafIDs = append(st.LeafIDs, id)
		st.Deltas = append(st.Deltas, ds)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("stream: encode HT delta: %w", err)
	}
	return buf.Bytes(), nil
}

// AccumulatorFromState implements RemoteTrainable: it rebinds a remote
// delta to this tree, rejecting deltas built against a different tree
// structure or shaped for different class or feature counts.
func (t *HoeffdingTree) AccumulatorFromState(data []byte) (ml.Accumulator, error) {
	var st htDeltaState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("stream: decode HT delta: %w", err)
	}
	if st.Version != t.Version() {
		return nil, fmt.Errorf("stream: HT delta version %d does not match tree version %d", st.Version, t.Version())
	}
	if len(st.LeafIDs) != len(st.Deltas) {
		return nil, fmt.Errorf("stream: HT delta has %d leaf ids for %d leaf deltas", len(st.LeafIDs), len(st.Deltas))
	}
	acc := &htAccumulator{tree: t, deltas: make(map[int64]*htLeafDelta), count: st.Count}
	for i, id := range st.LeafIDs {
		d := st.Deltas[i]
		obs, err := decodeLeaf(d.ClassCounts, d.ObsIdx, d.Obs, t.cfg.NumClasses, t.cfg.NumFeatures)
		if err != nil {
			return nil, fmt.Errorf("stream: HT delta leaf %d: %w", id, err)
		}
		acc.deltas[id] = &htLeafDelta{classCounts: d.ClassCounts, observers: obs, weight: d.Weight}
	}
	return acc, nil
}

// --- Streaming logistic regression ---

// slrState is the gob DTO for SLR.
type slrState struct {
	Cfg        SLRConfig
	W          [][]float64
	TrainCount int64
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SLR) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(slrState{Cfg: s.cfg, W: s.w, TrainCount: s.trainCount})
	if err != nil {
		return nil, fmt.Errorf("stream: encode SLR: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores the model state in place.
func (s *SLR) UnmarshalBinary(data []byte) error {
	var st slrState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode SLR: %w", err)
	}
	if err := checkDims(st.Cfg.NumClasses, st.Cfg.NumFeatures); err != nil {
		return err
	}
	if err := checkWeights(st.W, st.Cfg.NumClasses, st.Cfg.NumFeatures+1); err != nil {
		return err
	}
	s.cfg = st.Cfg
	s.w = st.W
	s.trainCount = st.TrainCount
	s.epoch++ // weights replaced: invalidate compiled snapshots
	return nil
}

// checkWeights validates an SLR weight matrix's shape.
func checkWeights(w [][]float64, rows, cols int) error {
	if len(w) != rows {
		return fmt.Errorf("stream: SLR weights have %d rows, want %d", len(w), rows)
	}
	for _, row := range w {
		if len(row) != cols {
			return fmt.Errorf("stream: SLR weight row has %d entries, want %d", len(row), cols)
		}
	}
	return nil
}

// slrDeltaState is the gob DTO of an SLR accumulator.
type slrDeltaState struct {
	W     [][]float64
	Count int64
}

// State implements StatefulAccumulator.
func (a *slrAccumulator) State() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(slrDeltaState{W: a.w, Count: a.count}); err != nil {
		return nil, fmt.Errorf("stream: encode SLR delta: %w", err)
	}
	return buf.Bytes(), nil
}

// AccumulatorFromState implements RemoteTrainable.
func (s *SLR) AccumulatorFromState(data []byte) (ml.Accumulator, error) {
	var st slrDeltaState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("stream: decode SLR delta: %w", err)
	}
	if err := checkWeights(st.W, len(s.w), len(s.w[0])); err != nil {
		return nil, err
	}
	return &slrAccumulator{cfg: s.cfg, w: st.W, count: st.Count}, nil
}

// Model kind tags used by the cluster protocol and checkpoints.
const (
	KindHT  = "HT"
	KindSLR = "SLR"
	KindARF = "ARF"
)

// Kind implements RemoteTrainable.
func (t *HoeffdingTree) Kind() string { return KindHT }

// Kind implements RemoteTrainable.
func (s *SLR) Kind() string { return KindSLR }

// Interface conformance checks.
var (
	_ RemoteTrainable     = (*HoeffdingTree)(nil)
	_ RemoteTrainable     = (*SLR)(nil)
	_ StatefulAccumulator = (*htAccumulator)(nil)
	_ StatefulAccumulator = (*slrAccumulator)(nil)
)
