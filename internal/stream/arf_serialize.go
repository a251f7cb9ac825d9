package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"redhanded/internal/ml"
)

// ARF wire formats. Two encodings share the DTOs in this file:
//
//   - the full encoding (MarshalBinary/UnmarshalBinary) captures everything
//     a restart needs — member trees, background trees, ADWIN/DDM detector
//     state, the structural RNG state, and the generation counters — so a
//     checkpointed forest resumes bit-for-bit. It is also the broadcast
//     format: executors decode it like any other kind and simply never run
//     the detectors it carries;
//   - the delta encoding (State/AccumulatorFromState) ships one Hoeffding
//     delta per member tree (plus active background trees) with the
//     generation snapshot that lets the driver drop deltas built against a
//     since-replaced tree.

// --- detector state ---

// adwinBucketState is the exported DTO of one exponential-histogram bucket.
type adwinBucketState struct {
	N, Sum, M2 float64
}

// adwinState is the exported DTO of one ADWIN instance.
type adwinState struct {
	Delta         float64
	Rows          [][]adwinBucketState
	MaxPerRow     int
	Width         float64
	Total         float64
	SinceCheck    int
	CheckInterval int
	Drifts        int
	LastIncrease  bool
}

func snapshotADWIN(a *ADWIN) adwinState {
	st := adwinState{
		Delta:         a.Delta,
		MaxPerRow:     a.maxPerRow,
		Width:         a.width,
		Total:         a.total,
		SinceCheck:    a.sinceCheck,
		CheckInterval: a.checkInterval,
		Drifts:        a.drifts,
		LastIncrease:  a.lastIncrease,
	}
	st.Rows = make([][]adwinBucketState, len(a.rows))
	for i, row := range a.rows {
		st.Rows[i] = make([]adwinBucketState, len(row))
		for j, b := range row {
			st.Rows[i][j] = adwinBucketState{N: b.n, Sum: b.sum, M2: b.m2}
		}
	}
	return st
}

func restoreADWIN(st adwinState) *ADWIN {
	a := NewADWIN(st.Delta)
	if st.MaxPerRow > 0 {
		a.maxPerRow = st.MaxPerRow
	}
	if st.CheckInterval > 0 {
		a.checkInterval = st.CheckInterval
	}
	a.width = st.Width
	a.total = st.Total
	a.sinceCheck = st.SinceCheck
	a.drifts = st.Drifts
	a.lastIncrease = st.LastIncrease
	a.rows = make([][]adwinBucket, len(st.Rows))
	for i, row := range st.Rows {
		a.rows[i] = make([]adwinBucket, len(row))
		for j, b := range row {
			a.rows[i][j] = adwinBucket{n: b.N, sum: b.Sum, m2: b.M2}
		}
	}
	return a
}

// ddmState is the exported DTO of a DDM instance.
type ddmState struct {
	N, P, PMin, SMin float64
	State            int
	MinInstances     int
	Drifts           int
}

// detectorState is the union DTO for one member's detector (gob omits nil
// pointer fields, so only the active family is encoded).
type detectorState struct {
	ADWIN *adwinPairState
	DDM   *ddmState
}

// adwinPairState serializes the warning+drift ADWIN pair.
type adwinPairState struct {
	Warning, Drift adwinState
	Gate           bool
}

func snapshotDetector(d memberDetector) detectorState {
	switch det := d.(type) {
	case *adwinDetector:
		return detectorState{ADWIN: &adwinPairState{
			Warning: snapshotADWIN(det.warning),
			Drift:   snapshotADWIN(det.drift),
			Gate:    det.gate,
		}}
	case *ddmDetector:
		return detectorState{DDM: &ddmState{
			N: det.ddm.n, P: det.ddm.p, PMin: det.ddm.pMin, SMin: det.ddm.sMin,
			State: int(det.ddm.state), MinInstances: det.ddm.MinInstances, Drifts: det.ddm.drifts,
		}}
	default:
		return detectorState{}
	}
}

func (f *AdaptiveRandomForest) restoreDetector(st detectorState) memberDetector {
	switch {
	case st.ADWIN != nil:
		return &adwinDetector{
			warning: restoreADWIN(st.ADWIN.Warning),
			drift:   restoreADWIN(st.ADWIN.Drift),
			gate:    st.ADWIN.Gate,
		}
	case st.DDM != nil:
		d := NewDDM()
		d.n, d.p, d.pMin, d.sMin = st.DDM.N, st.DDM.P, st.DDM.PMin, st.DDM.SMin
		d.state = DriftState(st.DDM.State)
		if st.DDM.MinInstances > 0 {
			d.MinInstances = st.DDM.MinInstances
		}
		d.drifts = st.DDM.Drifts
		return &ddmDetector{ddm: d}
	default:
		return f.newDetector()
	}
}

// --- full encoding (checkpoint and broadcast) ---

// arfMemberState is the full-fidelity gob DTO of one ensemble slot.
type arfMemberState struct {
	Tree         []byte
	Gen          uint64
	Background   []byte // nil when no background tree is active
	BgGen        uint64
	Seen         float64
	Correct      float64
	Warnings     int64
	Drifts       int64
	Replacements int64
	Detector     detectorState
}

// arfState is the full-fidelity gob DTO of a forest.
type arfState struct {
	Cfg        ARFConfig
	RngState   uint64
	TrainCount int64
	NextGen    uint64
	Drifts     int
	Warnings   int
	Members    []arfMemberState
}

// MarshalBinary implements encoding.BinaryMarshaler with the full forest
// state, including drift detectors and the structural RNG, so a restored
// forest continues exactly where this one stopped.
func (f *AdaptiveRandomForest) MarshalBinary() ([]byte, error) {
	st := arfState{
		Cfg:        f.cfg,
		RngState:   f.rng.State(),
		TrainCount: f.trainCount,
		NextGen:    f.nextGen,
		Drifts:     f.drifts,
		Warnings:   f.warnings,
	}
	for _, m := range f.members {
		tree, err := m.tree.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("stream: encode ARF member tree: %w", err)
		}
		ms := arfMemberState{
			Tree: tree, Gen: m.gen, BgGen: m.bgGen,
			Seen: m.seen, Correct: m.correct,
			Warnings: m.warnings, Drifts: m.drifts, Replacements: m.replacements,
			Detector: snapshotDetector(m.detector),
		}
		if m.background != nil {
			if ms.Background, err = m.background.MarshalBinary(); err != nil {
				return nil, fmt.Errorf("stream: encode ARF background tree: %w", err)
			}
		}
		st.Members = append(st.Members, ms)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("stream: encode ARF: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores the forest state in place. Every member tree
// must share the forest's class and feature counts; a malformed encoding
// is an error and leaves the forest untouched.
func (f *AdaptiveRandomForest) UnmarshalBinary(data []byte) error {
	var st arfState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode ARF: %w", err)
	}
	if st.Cfg.NumClasses < 2 || len(st.Members) == 0 {
		return fmt.Errorf("stream: ARF encoding has no usable ensemble")
	}
	decodeTree := func(blob []byte) (*HoeffdingTree, error) {
		t := new(HoeffdingTree)
		if err := t.UnmarshalBinary(blob); err != nil {
			return nil, err
		}
		if t.cfg.NumClasses != st.Cfg.NumClasses || t.cfg.NumFeatures != st.Cfg.NumFeatures {
			return nil, fmt.Errorf("stream: ARF member tree has %d classes and %d features, forest %d and %d",
				t.cfg.NumClasses, t.cfg.NumFeatures, st.Cfg.NumClasses, st.Cfg.NumFeatures)
		}
		return t, nil
	}
	members := make([]*arfMember, 0, len(st.Members))
	for _, ms := range st.Members {
		m := &arfMember{
			gen: ms.Gen, bgGen: ms.BgGen,
			seen: ms.Seen, correct: ms.Correct,
			warnings: ms.Warnings, drifts: ms.Drifts, replacements: ms.Replacements,
		}
		var err error
		if m.tree, err = decodeTree(ms.Tree); err != nil {
			return fmt.Errorf("stream: decode ARF member tree: %w", err)
		}
		if len(ms.Background) > 0 {
			if m.background, err = decodeTree(ms.Background); err != nil {
				return fmt.Errorf("stream: decode ARF background tree: %w", err)
			}
		}
		members = append(members, m)
	}
	f.cfg = st.Cfg
	f.rng = ml.NewRNG(st.Cfg.Seed)
	f.rng.SetState(st.RngState)
	f.trainCount = st.TrainCount
	f.nextGen = st.NextGen
	f.drifts = st.Drifts
	f.warnings = st.Warnings
	for i, m := range members {
		m.detector = f.restoreDetector(st.Members[i].Detector)
	}
	f.members = members
	f.epoch++ // the whole ensemble was rebuilt: invalidate compiled snapshots
	return nil
}

// --- delta encoding (executor -> driver) ---

// arfDeltaState is the gob DTO of an ARF accumulator: one Hoeffding delta
// per member (plus active backgrounds) and the generation snapshot the
// driver validates against its current ensemble.
type arfDeltaState struct {
	Count   int64
	Gens    []uint64
	BgGens  []uint64
	Errors  []float64
	Seen    []float64
	Trees   [][]byte
	BgTrees [][]byte
}

// State implements StatefulAccumulator.
func (a *arfAccumulator) State() ([]byte, error) {
	st := arfDeltaState{
		Count:  a.count,
		Gens:   a.gens,
		BgGens: a.bgGens,
		Errors: a.errors,
		Seen:   a.seen,
	}
	for i := range a.trees {
		blob, err := a.trees[i].(StatefulAccumulator).State()
		if err != nil {
			return nil, fmt.Errorf("stream: encode ARF delta member %d: %w", i, err)
		}
		st.Trees = append(st.Trees, blob)
		var bgBlob []byte
		if a.bgTrees[i] != nil {
			if bgBlob, err = a.bgTrees[i].(StatefulAccumulator).State(); err != nil {
				return nil, fmt.Errorf("stream: encode ARF delta background %d: %w", i, err)
			}
		}
		st.BgTrees = append(st.BgTrees, bgBlob)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("stream: encode ARF delta: %w", err)
	}
	return buf.Bytes(), nil
}

// AccumulatorFromState implements RemoteTrainable: it rebinds a remote
// delta to this forest's members, validating each member delta against the
// tree it claims to extend. Deltas for since-replaced trees (stale
// generation) are kept as empty slots, which ApplyAccumulators drops the
// same way it drops stale in-process accumulators.
func (f *AdaptiveRandomForest) AccumulatorFromState(data []byte) (ml.Accumulator, error) {
	var st arfDeltaState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("stream: decode ARF delta: %w", err)
	}
	n := len(f.members)
	if len(st.Gens) != n || len(st.BgGens) != n || len(st.Errors) != n ||
		len(st.Seen) != n || len(st.Trees) != n || len(st.BgTrees) != n {
		return nil, fmt.Errorf("stream: ARF delta shape does not match a %d-member forest", n)
	}
	// Every member scores every observed instance, so each member's seen
	// count is the delta's count and its errors lie within it.
	for i := range st.Seen {
		if st.Count < 0 || st.Seen[i] != float64(st.Count) || !(st.Errors[i] >= 0 && st.Errors[i] <= st.Seen[i]) {
			return nil, fmt.Errorf("stream: ARF delta member %d scored %v instances with %v errors, delta counts %d",
				i, st.Seen[i], st.Errors[i], st.Count)
		}
	}
	acc := &arfAccumulator{
		forest: f,
		count:  st.Count,
		gens:   st.Gens,
		bgGens: st.BgGens,
		errors: st.Errors,
		seen:   st.Seen,
	}
	for i, m := range f.members {
		var tree, bg ml.Accumulator
		if st.Gens[i] == m.gen {
			var err error
			if tree, err = m.tree.AccumulatorFromState(st.Trees[i]); err != nil {
				return nil, fmt.Errorf("stream: ARF delta member %d: %w", i, err)
			}
			if m.background != nil && st.BgGens[i] == m.bgGen && len(st.BgTrees[i]) > 0 {
				if bg, err = m.background.AccumulatorFromState(st.BgTrees[i]); err != nil {
					return nil, fmt.Errorf("stream: ARF delta background %d: %w", i, err)
				}
			}
		}
		acc.trees = append(acc.trees, tree)
		acc.bgTrees = append(acc.bgTrees, bg)
	}
	return acc, nil
}

// Kind implements RemoteTrainable.
func (f *AdaptiveRandomForest) Kind() string { return KindARF }

// Interface conformance checks.
var (
	_ RemoteTrainable     = (*AdaptiveRandomForest)(nil)
	_ StatefulAccumulator = (*arfAccumulator)(nil)
)
