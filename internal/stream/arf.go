package stream

import (
	"fmt"
	"math"

	"redhanded/internal/ml"
)

// ARFConfig configures the Adaptive Random Forest. Defaults follow Table I
// (ensemble size 10) and Gomes et al. 2017 (Poisson lambda 6, warning/drift
// deltas 0.01/0.001, subspace size ceil(sqrt(F)) + 1).
type ARFConfig struct {
	NumClasses   int
	NumFeatures  int
	EnsembleSize int     // default 10
	SubspaceSize int     // features per tree; default ceil(sqrt(F)) + 1
	Lambda       float64 // online-bagging Poisson parameter; default 6
	WarningDelta float64 // ADWIN delta for the warning detector; default 0.01
	DriftDelta   float64 // ADWIN delta for the drift detector; default 0.001
	Tree         HTConfig
	Seed         uint64
	// DisableDrift turns off ADWIN monitoring (ablation).
	DisableDrift bool
	// DisableBagging trains every tree on every instance with unit weight
	// (ablation).
	DisableBagging bool
	// GateOnErrorIncrease reacts to ADWIN changes only when the error rate
	// is rising. The classical ARF (and the streamDM version the paper
	// evaluates) resets on any detected change — including improvements —
	// which delays its plateau and costs a few F1 points (visible in
	// Figs. 11/12, where ARF trails HT/SLR by ~4%). The gated variant is
	// this implementation's extension; the distributed training path
	// always gates, since batch-granularity replay would otherwise
	// misread the warm-up phase as drift.
	GateOnErrorIncrease bool
	// Detector selects the drift detector family (default ADWIN).
	Detector DetectorKind
}

// DetectorKind selects the per-member drift detector.
type DetectorKind int

// Available detector families.
const (
	// DetectADWIN uses two ADWIN instances (warning + drift deltas).
	DetectADWIN DetectorKind = iota
	// DetectDDM uses the Drift Detection Method's warning/drift levels.
	DetectDDM
)

// memberDetector abstracts the warning/drift monitoring of one member.
type memberDetector interface {
	// add folds one error observation and reports (warning, drift).
	add(errBit float64) (warning, drift bool)
	// addGated is the batch-replay variant: it must never react to error
	// improvements (batch-granularity replay would otherwise misread
	// warm-up improvements as change).
	addGated(v float64) (warning, drift bool)
}

// adwinDetector pairs warning and drift ADWINs.
type adwinDetector struct {
	warning *ADWIN
	drift   *ADWIN
	gate    bool
}

func (d *adwinDetector) add(errBit float64) (bool, bool) {
	w := d.warning.Add(errBit) && (!d.gate || d.warning.IncreaseDetected())
	dr := d.drift.Add(errBit) && (!d.gate || d.drift.IncreaseDetected())
	return w, dr
}

func (d *adwinDetector) addGated(v float64) (bool, bool) {
	w := d.warning.Add(v) && d.warning.IncreaseDetected()
	dr := d.drift.Add(v) && d.drift.IncreaseDetected()
	return w, dr
}

// ddmDetector adapts DDM's three-level state (DDM only ever reacts to
// error increases, so both entry points coincide).
type ddmDetector struct{ ddm *DDM }

func (d *ddmDetector) add(errBit float64) (bool, bool) {
	switch d.ddm.Add(errBit) {
	case DriftWarning:
		return true, false
	case DriftDetected:
		return false, true
	default:
		return false, false
	}
}

func (d *ddmDetector) addGated(v float64) (bool, bool) { return d.add(v) }

func (f *AdaptiveRandomForest) newDetector() memberDetector {
	if f.cfg.Detector == DetectDDM {
		return &ddmDetector{ddm: NewDDM()}
	}
	return &adwinDetector{
		warning: NewADWIN(f.cfg.WarningDelta),
		drift:   NewADWIN(f.cfg.DriftDelta),
		gate:    f.cfg.GateOnErrorIncrease,
	}
}

func (c ARFConfig) withDefaults() ARFConfig {
	if c.EnsembleSize == 0 {
		c.EnsembleSize = 10
	}
	if c.SubspaceSize == 0 {
		c.SubspaceSize = int(math.Ceil(math.Sqrt(float64(c.NumFeatures)))) + 1
	}
	if c.SubspaceSize > c.NumFeatures {
		c.SubspaceSize = c.NumFeatures
	}
	if c.Lambda == 0 {
		c.Lambda = 6
	}
	if c.WarningDelta == 0 {
		c.WarningDelta = 0.01
	}
	if c.DriftDelta == 0 {
		c.DriftDelta = 0.001
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Tree.NumClasses = c.NumClasses
	c.Tree.NumFeatures = c.NumFeatures
	c.Tree = c.Tree.withDefaults()
	return c
}

// arfMember is one ensemble slot: a tree, its drift detector, a possible
// background tree warming up to replace it, and a prequential accuracy
// estimate used to weight its votes. The generation numbers identify the
// trees across serialization boundaries (accumulator deltas built against
// a replaced tree are recognized and dropped by generation, the way the
// in-process engines used pointer identity).
type arfMember struct {
	tree       *HoeffdingTree
	background *HoeffdingTree
	detector   memberDetector
	gen        uint64
	bgGen      uint64
	seen       float64
	correct    float64
	// Telemetry.
	warnings     int64
	drifts       int64
	replacements int64
}

func (m *arfMember) weight() float64 {
	if m.seen < 1 {
		return 1
	}
	return math.Max(m.correct/m.seen, 0.01)
}

// AdaptiveRandomForest is an online random forest for evolving data
// streams: diversity comes from online bagging (Poisson(lambda) instance
// weights) and per-tree random feature subspaces; adaptation comes from
// per-tree ADWIN detectors that grow a background tree on warning and swap
// it in on drift.
type AdaptiveRandomForest struct {
	cfg        ARFConfig
	members    []*arfMember
	rng        *ml.RNG // structural randomness: subspace sampling
	nextGen    uint64
	trainCount int64
	drifts     int
	warnings   int
	// epoch counts prediction-relevant mutations at forest granularity
	// (every train step touches the accuracy weights even when bagging
	// draws zero). compiled points at the members' compiled trees, each
	// kept up to date by its own tree (compiled.go), beside their weights.
	epoch    uint64
	compiled Compiled
}

var _ ml.DistributedClassifier = (*AdaptiveRandomForest)(nil)

// NewAdaptiveRandomForest creates a forest for the configuration.
func NewAdaptiveRandomForest(cfg ARFConfig) *AdaptiveRandomForest {
	cfg = cfg.withDefaults()
	if cfg.NumClasses < 2 {
		panic(fmt.Sprintf("stream: ARF needs >= 2 classes, got %d", cfg.NumClasses))
	}
	f := &AdaptiveRandomForest{cfg: cfg, rng: ml.NewRNG(cfg.Seed)}
	for i := 0; i < cfg.EnsembleSize; i++ {
		f.members = append(f.members, f.newMember())
	}
	return f
}

func (f *AdaptiveRandomForest) newGen() uint64 {
	f.nextGen++
	return f.nextGen
}

func (f *AdaptiveRandomForest) newMember() *arfMember {
	return &arfMember{tree: f.newTree(), gen: f.newGen(), detector: f.newDetector()}
}

func (f *AdaptiveRandomForest) newTree() *HoeffdingTree {
	cfg := f.cfg.Tree
	cfg.FeatureSubset = f.rng.SampleWithoutReplacement(f.cfg.NumFeatures, f.cfg.SubspaceSize)
	return NewHoeffdingTree(cfg)
}

// NumClasses implements ml.StreamClassifier.
func (f *AdaptiveRandomForest) NumClasses() int { return f.cfg.NumClasses }

// EnsembleSize returns the number of member trees.
func (f *AdaptiveRandomForest) EnsembleSize() int { return len(f.members) }

// TrainCount returns the number of instances trained on.
func (f *AdaptiveRandomForest) TrainCount() int64 { return f.trainCount }

// DriftsDetected returns the total number of member-tree replacements due
// to detected drift.
func (f *AdaptiveRandomForest) DriftsDetected() int { return f.drifts }

// WarningsDetected returns how many background trees have been started.
func (f *AdaptiveRandomForest) WarningsDetected() int { return f.warnings }

// DriftStats implements DriftReporter.
func (f *AdaptiveRandomForest) DriftStats() DriftStats {
	st := DriftStats{Members: make([]MemberDriftStats, len(f.members))}
	for i, m := range f.members {
		st.Members[i] = MemberDriftStats{
			Member:           i,
			Warnings:         m.warnings,
			Drifts:           m.drifts,
			TreeReplacements: m.replacements,
			BackgroundActive: m.background != nil,
		}
		st.Warnings += m.warnings
		st.Drifts += m.drifts
		st.TreeReplacements += m.replacements
	}
	return st
}

// Predict implements ml.Classifier: accuracy-weighted soft voting.
func (f *AdaptiveRandomForest) Predict(x []float64) ml.Prediction {
	votes := make(ml.Prediction, f.cfg.NumClasses)
	for _, m := range f.members {
		v := m.tree.Predict(x).Normalize()
		w := m.weight()
		for c := range votes {
			if c < len(v) {
				votes[c] += w * v[c]
			}
		}
	}
	return votes
}

// baggingWeight draws the Poisson(lambda) online-bagging weight for the
// member seeing the instance at logical stream position n. The draw comes
// from a counter-based RNG keyed by (seed, n, member) instead of a shared
// stateful generator, so every execution plan — sequential, micro-batch
// tasks, cluster executors, and a failed-over share re-run on a different
// node — derives the identical weight for the same logical instance.
func (f *AdaptiveRandomForest) baggingWeight(n int64, member int) float64 {
	if f.cfg.DisableBagging {
		return 1
	}
	rng := ml.NewRNG(ml.SeedAt(ml.SeedAt(f.cfg.Seed, uint64(n)), uint64(member)))
	return float64(rng.Poisson(f.cfg.Lambda))
}

// Train implements ml.StreamClassifier.
func (f *AdaptiveRandomForest) Train(in ml.Instance) {
	if !in.IsLabeled() || in.Label >= f.cfg.NumClasses || !in.Valid() {
		return
	}
	f.epoch++
	for i, m := range f.members {
		f.trainMember(m, in, f.baggingWeight(f.trainCount, i))
	}
	f.trainCount++
}

// trainMember performs the ARF per-member step: prequential error
// monitoring, weighted training, then warning/drift reactions. Training
// happens before the detector reacts — a warning's background tree starts
// from the next instance and a drifted member's replacement takes over from
// the next instance — so the micro-batch merge (tree deltas applied, then
// detectors replayed) is an exact replay of this order at batch size 1.
func (f *AdaptiveRandomForest) trainMember(m *arfMember, in ml.Instance, k float64) {
	pred := m.tree.vote(m.tree.scratch, in.X)
	errBit := 1.0
	if pred == in.Label {
		errBit = 0
		m.correct++
	}
	m.seen++

	if k > 0 {
		weighted := in
		weighted.Weight = k
		m.tree.Train(weighted)
		if m.background != nil {
			m.background.Train(weighted)
		}
	}

	if !f.cfg.DisableDrift {
		warned, drifted := m.detector.add(errBit)
		f.react(m, warned, drifted)
	}
}

// react applies one detector verdict to the member: start a background
// tree on warning, swap it in on drift.
func (f *AdaptiveRandomForest) react(m *arfMember, warned, drifted bool) {
	if warned && m.background == nil {
		m.background = f.newTree()
		m.bgGen = f.newGen()
		f.warnings++
		m.warnings++
	}
	if drifted {
		f.drifts++
		m.drifts++
		f.replaceTree(m)
	}
}

// arfAccumulator holds one tree accumulator per member (plus one per
// active background tree) and per-member error counts. Drift handling
// happens at the driver during the merge: the aggregate error bits of the
// batch are replayed into each member's detectors. Ordering within the
// batch is lost, which is an accepted approximation for micro-batch
// execution (drift decisions operate at batch granularity).
type arfAccumulator struct {
	forest  *AdaptiveRandomForest
	base    int64 // forest train count at creation: the logical stream position of the first observation
	trees   []ml.Accumulator
	bgTrees []ml.Accumulator // nil slots where the member had no background tree
	gens    []uint64
	bgGens  []uint64
	errors  []float64 // per member: errors in this batch
	seen    []float64 // per member: instances scored
	scratch []float64 // the members' votes, 2*NumClasses
	count   int64
}

var _ ml.Accumulator = (*arfAccumulator)(nil)

// NewAccumulator implements ml.DistributedClassifier. It does not mutate
// the forest, so parallel tasks may call it concurrently.
func (f *AdaptiveRandomForest) NewAccumulator() ml.Accumulator {
	acc := &arfAccumulator{
		forest:  f,
		base:    f.trainCount,
		errors:  make([]float64, len(f.members)),
		seen:    make([]float64, len(f.members)),
		scratch: make([]float64, 2*f.cfg.NumClasses),
	}
	for _, m := range f.members {
		acc.trees = append(acc.trees, m.tree.NewAccumulator())
		acc.gens = append(acc.gens, m.gen)
		if m.background != nil {
			acc.bgTrees = append(acc.bgTrees, m.background.NewAccumulator())
		} else {
			acc.bgTrees = append(acc.bgTrees, nil)
		}
		acc.bgGens = append(acc.bgGens, m.bgGen)
	}
	return acc
}

// Observe implements ml.Accumulator.
func (a *arfAccumulator) Observe(in ml.Instance) {
	if !in.IsLabeled() || in.Label >= a.forest.cfg.NumClasses || !in.Valid() {
		return
	}
	n := a.base + a.count
	for i, m := range a.forest.members {
		if m.tree.vote(a.scratch, in.X) != in.Label {
			a.errors[i]++
		}
		a.seen[i]++
		if k := a.forest.baggingWeight(n, i); k > 0 {
			weighted := in
			weighted.Weight = k
			a.trees[i].Observe(weighted)
			if a.bgTrees[i] != nil {
				a.bgTrees[i].Observe(weighted)
			}
		}
	}
	a.count++
}

// Count implements ml.Accumulator.
func (a *arfAccumulator) Count() int64 { return a.count }

// ApplyAccumulators implements ml.DistributedClassifier. Per member the
// merge replays the sequential member step at batch granularity: apply the
// foreground and background tree deltas (training), then fold the batch's
// error counts into the accuracy estimate and the drift detectors.
// Accumulators whose generation snapshot no longer matches the member
// (the tree was replaced since the accumulator was made) are dropped.
func (f *AdaptiveRandomForest) ApplyAccumulators(accs []ml.Accumulator) {
	for i, m := range f.members {
		var treeAccs, bgAccs []ml.Accumulator
		var errs, seen float64
		for _, raw := range accs {
			acc, ok := raw.(*arfAccumulator)
			if !ok || acc.forest != f || i >= len(acc.trees) {
				continue
			}
			if acc.gens[i] != m.gen || acc.trees[i] == nil {
				continue // tree was replaced since the accumulator was made
			}
			treeAccs = append(treeAccs, acc.trees[i])
			errs += acc.errors[i]
			seen += acc.seen[i]
			if m.background != nil && acc.bgTrees[i] != nil && acc.bgGens[i] == m.bgGen {
				bgAccs = append(bgAccs, acc.bgTrees[i])
			}
		}
		if len(treeAccs) > 0 {
			m.tree.ApplyAccumulators(treeAccs)
		}
		if len(bgAccs) > 0 {
			m.background.ApplyAccumulators(bgAccs)
		}
		m.seen += seen
		m.correct += seen - errs
		if !f.cfg.DisableDrift && seen > 0 {
			f.replayDetectors(m, errs, seen)
		}
	}
	matched := false
	for _, raw := range accs {
		if acc, ok := raw.(*arfAccumulator); ok && acc.forest == f {
			f.trainCount += acc.count
			matched = true
		}
	}
	if matched {
		f.epoch++
	}
}

// replaceTree swaps in the background tree (or a fresh one) and resets the
// member's detector and accuracy estimate.
func (f *AdaptiveRandomForest) replaceTree(m *arfMember) {
	if m.background != nil {
		m.tree = m.background
		m.gen = m.bgGen
		m.background = nil
		m.bgGen = 0
	} else {
		m.tree = f.newTree()
		m.gen = f.newGen()
	}
	m.detector = f.newDetector()
	m.seen, m.correct = 0, 0
	m.replacements++
}

// replayDetectors feeds the batch's error rate into the member's detector
// as seen constant-valued observations. Within-batch ordering is
// unavailable after the merge, so drift decisions operate at batch
// granularity: a change is detected when the batch error rate departs from
// the window's history, never from artificial intra-batch patterns.
func (f *AdaptiveRandomForest) replayDetectors(m *arfMember, errs, seen float64) {
	rate := errs / seen
	warned, drifted := false, false
	for i := 0.0; i < seen; i++ {
		w, d := m.detector.addGated(rate)
		warned = warned || w
		drifted = drifted || d
	}
	f.react(m, warned, drifted)
}
