package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"redhanded/internal/ml"
)

// ARF wire formats. Three encodings share the DTOs in this file:
//
//   - the full encoding (MarshalBinary/UnmarshalBinary) captures everything
//     a restart needs — member trees, background trees, ADWIN/DDM detector
//     state, the structural RNG state, and the generation counters — so a
//     checkpointed forest resumes bit-for-bit;
//   - the parts encoding (MarshalParts/UnmarshalParts/PatchParts) is the
//     broadcast format: a small header (config, train count, per-member
//     vote weights and generations) plus one part per ensemble slot
//     (foreground + background tree). Executors never run drift detection,
//     so detector and RNG state stay off the wire, and the driver's
//     per-part hash elision ships only the members that actually changed —
//     in steady state, none;
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

// --- full encoding (checkpoint / broadcast-emulation round trip) ---

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

// UnmarshalBinary restores the forest state in place.
func (f *AdaptiveRandomForest) UnmarshalBinary(data []byte) error {
	var st arfState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("stream: decode ARF: %w", err)
	}
	if st.Cfg.NumClasses < 2 || len(st.Members) == 0 {
		return fmt.Errorf("stream: ARF encoding has no usable ensemble")
	}
	f.cfg = st.Cfg
	f.rng = ml.NewRNG(st.Cfg.Seed)
	f.rng.SetState(st.RngState)
	f.trainCount = st.TrainCount
	f.nextGen = st.NextGen
	f.drifts = st.Drifts
	f.warnings = st.Warnings
	f.members = nil
	for _, ms := range st.Members {
		m := &arfMember{
			gen: ms.Gen, bgGen: ms.BgGen,
			seen: ms.Seen, correct: ms.Correct,
			warnings: ms.Warnings, drifts: ms.Drifts, replacements: ms.Replacements,
			tree: new(HoeffdingTree),
		}
		if err := m.tree.UnmarshalBinary(ms.Tree); err != nil {
			return fmt.Errorf("stream: decode ARF member tree: %w", err)
		}
		if len(ms.Background) > 0 {
			m.background = new(HoeffdingTree)
			if err := m.background.UnmarshalBinary(ms.Background); err != nil {
				return fmt.Errorf("stream: decode ARF background tree: %w", err)
			}
		}
		m.detector = f.restoreDetector(ms.Detector)
		f.members = append(f.members, m)
	}
	f.epoch++ // the whole ensemble was rebuilt: invalidate compiled snapshots
	return nil
}

// --- parts encoding (per-member broadcast elision) ---

// arfMemberHeader is the always-shipped per-member broadcast metadata.
type arfMemberHeader struct {
	Gen     uint64
	BgGen   uint64
	Seen    float64
	Correct float64
}

// arfPartsHeader is the broadcast header.
type arfPartsHeader struct {
	Cfg        ARFConfig
	TrainCount int64
	NextGen    uint64
	Members    []arfMemberHeader
}

// arfMemberPart is one broadcast part: the member's foreground tree and,
// when active, its background tree.
type arfMemberPart struct {
	Tree       []byte
	Background []byte
}

// MarshalParts implements PartitionedModel.
func (f *AdaptiveRandomForest) MarshalParts() ([]byte, [][]byte, error) {
	hdr := arfPartsHeader{Cfg: f.cfg, TrainCount: f.trainCount, NextGen: f.nextGen}
	parts := make([][]byte, 0, len(f.members))
	for _, m := range f.members {
		hdr.Members = append(hdr.Members, arfMemberHeader{
			Gen: m.gen, BgGen: m.bgGen, Seen: m.seen, Correct: m.correct,
		})
		tree, err := m.tree.MarshalBinary()
		if err != nil {
			return nil, nil, fmt.Errorf("stream: encode ARF part: %w", err)
		}
		part := arfMemberPart{Tree: tree}
		if m.background != nil {
			if part.Background, err = m.background.MarshalBinary(); err != nil {
				return nil, nil, fmt.Errorf("stream: encode ARF part: %w", err)
			}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(part); err != nil {
			return nil, nil, fmt.Errorf("stream: encode ARF part: %w", err)
		}
		parts = append(parts, buf.Bytes())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hdr); err != nil {
		return nil, nil, fmt.Errorf("stream: encode ARF header: %w", err)
	}
	return buf.Bytes(), parts, nil
}

// decodeMemberPart decodes one part blob into the member's trees.
func (m *arfMember) decodePart(blob []byte) error {
	var part arfMemberPart
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&part); err != nil {
		return fmt.Errorf("stream: decode ARF part: %w", err)
	}
	m.tree = new(HoeffdingTree)
	if err := m.tree.UnmarshalBinary(part.Tree); err != nil {
		return fmt.Errorf("stream: decode ARF part tree: %w", err)
	}
	m.background = nil
	if len(part.Background) > 0 {
		m.background = new(HoeffdingTree)
		if err := m.background.UnmarshalBinary(part.Background); err != nil {
			return fmt.Errorf("stream: decode ARF part background: %w", err)
		}
	}
	return nil
}

func decodePartsHeader(header []byte) (arfPartsHeader, error) {
	var hdr arfPartsHeader
	if err := gob.NewDecoder(bytes.NewReader(header)).Decode(&hdr); err != nil {
		return hdr, fmt.Errorf("stream: decode ARF header: %w", err)
	}
	if hdr.Cfg.NumClasses < 2 || len(hdr.Members) == 0 {
		return hdr, fmt.Errorf("stream: ARF header has no usable ensemble")
	}
	return hdr, nil
}

// applyHeader installs the header's forest-level and per-member metadata.
func (f *AdaptiveRandomForest) applyHeader(hdr arfPartsHeader) {
	f.cfg = hdr.Cfg
	f.trainCount = hdr.TrainCount
	f.nextGen = hdr.NextGen
	for i, mh := range hdr.Members {
		m := f.members[i]
		m.gen, m.bgGen = mh.Gen, mh.BgGen
		m.seen, m.correct = mh.Seen, mh.Correct
	}
}

// UnmarshalParts implements PartitionedModel: a full restore from the
// complete part set. Detectors and the structural RNG come up fresh —
// replicas restored this way only predict and accumulate; drift handling
// stays at the driver.
func (f *AdaptiveRandomForest) UnmarshalParts(header []byte, parts [][]byte) error {
	hdr, err := decodePartsHeader(header)
	if err != nil {
		return err
	}
	if len(parts) != len(hdr.Members) {
		return fmt.Errorf("stream: ARF broadcast has %d parts for %d members", len(parts), len(hdr.Members))
	}
	f.cfg = hdr.Cfg
	f.rng = ml.NewRNG(hdr.Cfg.Seed)
	f.members = make([]*arfMember, len(parts))
	for i := range parts {
		m := &arfMember{detector: f.newDetector()}
		if err := m.decodePart(parts[i]); err != nil {
			return err
		}
		f.members[i] = m
	}
	f.applyHeader(hdr)
	f.epoch++
	return nil
}

// PatchParts implements PartitionedModel: it patches the given member
// slots and refreshes the header metadata on an already-restored forest.
// A patch that references a member generation this forest does not hold
// (and does not carry the part for it) fails, so the session can answer
// NeedResync instead of serving shares against a wrong ensemble.
func (f *AdaptiveRandomForest) PatchParts(header []byte, idx []int, parts [][]byte) error {
	hdr, err := decodePartsHeader(header)
	if err != nil {
		return err
	}
	if len(hdr.Members) != len(f.members) {
		return fmt.Errorf("stream: ARF patch has %d members, forest has %d", len(hdr.Members), len(f.members))
	}
	if len(idx) != len(parts) {
		return fmt.Errorf("stream: ARF patch has %d indexes for %d parts", len(idx), len(parts))
	}
	patched := make(map[int]bool, len(idx))
	for k, i := range idx {
		if i < 0 || i >= len(f.members) {
			return fmt.Errorf("stream: ARF patch part index %d out of range", i)
		}
		if err := f.members[i].decodePart(parts[k]); err != nil {
			return err
		}
		patched[i] = true
	}
	for i, mh := range hdr.Members {
		m := f.members[i]
		if !patched[i] && (mh.Gen != m.gen || mh.BgGen != m.bgGen) {
			return fmt.Errorf("stream: ARF patch skips member %d whose trees changed", i)
		}
	}
	f.applyHeader(hdr)
	// Unpatched member trees keep their pointers, so a compiled snapshot
	// built against the pre-patch forest re-flattens only the patched
	// slots on the next CompileSnapshot.
	f.epoch++
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

func init() {
	RegisterCodec(Codec{Kind: KindARF, New: func() Model { return new(AdaptiveRandomForest) }})
}

// Interface conformance checks.
var (
	_ RemoteTrainable     = (*AdaptiveRandomForest)(nil)
	_ PartitionedModel    = (*AdaptiveRandomForest)(nil)
	_ StatefulAccumulator = (*arfAccumulator)(nil)
)
