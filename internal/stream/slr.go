package stream

import (
	"fmt"
	"math"

	"redhanded/internal/ml"
)

// Regularizer selects the penalty used by Streaming Logistic Regression
// (Table I: Zero, L1, or L2; the paper's grid search selects L2).
type Regularizer int

const (
	// RegZero applies no penalty.
	RegZero Regularizer = iota
	// RegL1 applies lasso (sign) shrinkage.
	RegL1
	// RegL2 applies ridge (weight-decay) shrinkage.
	RegL2
)

// String returns the Table I name of the regularizer.
func (r Regularizer) String() string {
	switch r {
	case RegL1:
		return "L1"
	case RegL2:
		return "L2"
	default:
		return "Zero"
	}
}

// SLRConfig configures Streaming Logistic Regression. Defaults follow
// Table I: learning rate (lambda) 0.1, L2 regularizer, regularization 0.01.
type SLRConfig struct {
	NumClasses   int
	NumFeatures  int
	LearningRate float64     // Table I "Lambda"; default 0.1
	Regularizer  Regularizer // default RegL2
	RegLambda    float64     // Table I "Regularization"; default 0.01
}

func (c SLRConfig) withDefaults() SLRConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.RegLambda == 0 {
		c.RegLambda = 0.01
	}
	return c
}

// SLR is logistic regression fit online with stochastic gradient descent,
// extended to multi-class via multinomial (softmax) heads — with two
// classes this reduces to ordinary binary logistic regression. Fitting
// matches the offline model but parameters update as each labeled instance
// arrives.
type SLR struct {
	cfg        SLRConfig
	w          [][]float64 // [class][feature]; last slot is the bias
	trainCount int64
	epoch      uint64    // prediction-relevant mutation counter (compiled.go)
	compiled   Compiled  // the flat weights CompileSnapshot keeps up to date
	probs      []float64 // NumClasses of working space, so Train allocates nothing
}

var _ ml.DistributedClassifier = (*SLR)(nil)

// NewSLR creates a streaming logistic regression model.
func NewSLR(cfg SLRConfig) *SLR {
	cfg = cfg.withDefaults()
	if cfg.NumClasses < 2 {
		panic(fmt.Sprintf("stream: SLR needs >= 2 classes, got %d", cfg.NumClasses))
	}
	if cfg.NumFeatures < 1 {
		panic("stream: SLR needs >= 1 feature")
	}
	w := make([][]float64, cfg.NumClasses)
	for c := range w {
		w[c] = make([]float64, cfg.NumFeatures+1)
	}
	return &SLR{cfg: cfg, w: w, probs: make([]float64, cfg.NumClasses)}
}

// NumClasses implements ml.StreamClassifier.
func (s *SLR) NumClasses() int { return s.cfg.NumClasses }

// TrainCount returns the number of instances trained on.
func (s *SLR) TrainCount() int64 { return s.trainCount }

// margin computes w_c · x + b.
func margin(w []float64, x []float64) float64 {
	m := w[len(w)-1]
	n := len(w) - 1
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		m += w[i] * x[i]
	}
	return m
}

// Predict implements ml.Classifier: softmax class probabilities.
func (s *SLR) Predict(x []float64) ml.Prediction {
	return softmaxMargins(make(ml.Prediction, len(s.w)), s.w, x)
}

// softmaxMargins writes softmax(w_c · x + b_c) over all class heads into
// votes (one value per head) and returns it.
//
//redvet:noalloc gate=TrainStep
func softmaxMargins(votes ml.Prediction, w [][]float64, x []float64) ml.Prediction {
	maxM := math.Inf(-1)
	for c := range w {
		votes[c] = margin(w[c], x)
		if votes[c] > maxM {
			maxM = votes[c]
		}
	}
	sum := 0.0
	for c := range votes {
		votes[c] = math.Exp(votes[c] - maxM)
		sum += votes[c]
	}
	for c := range votes {
		votes[c] /= sum
	}
	return votes
}

// Train implements ml.StreamClassifier: one SGD step per class head.
func (s *SLR) Train(in ml.Instance) {
	if !in.IsLabeled() || in.Label >= s.cfg.NumClasses || !in.Valid() {
		return
	}
	weight := in.Weight
	if weight <= 0 {
		weight = 1
	}
	sgdStep(s.w, s.probs, in, s.cfg, weight)
	s.trainCount++
	s.epoch++
}

// sgdStep performs one (possibly weighted) SGD step: cross-entropy
// gradient over the softmax outputs, plus the configured penalty. probs
// holds the softmax outputs (one value per head).
//
//redvet:noalloc gate=TrainStep
func sgdStep(w [][]float64, probs []float64, in ml.Instance, cfg SLRConfig, weight float64) {
	lr := cfg.LearningRate * weight
	p := softmaxMargins(probs, w, in.X)
	for c := range w {
		y := 0.0
		if in.Label == c {
			y = 1
		}
		g := p[c] - y
		wc := w[c]
		n := len(wc) - 1
		if len(in.X) < n {
			n = len(in.X)
		}
		for i := 0; i < n; i++ {
			grad := g * in.X[i]
			switch cfg.Regularizer {
			case RegL2:
				grad += cfg.RegLambda * wc[i]
			case RegL1:
				grad += cfg.RegLambda * signOf(wc[i])
			}
			wc[i] -= lr * grad
		}
		wc[len(wc)-1] -= lr * g // bias: never regularized
	}
}

func signOf(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// slrAccumulator trains a local copy of the weights over its partition;
// the driver merges copies by count-weighted parameter mixing, the standard
// approach for distributed SGD over linear models.
type slrAccumulator struct {
	cfg   SLRConfig
	w     [][]float64
	probs []float64 // sgdStep's working space
	count int64
}

var _ ml.Accumulator = (*slrAccumulator)(nil)

// NewAccumulator implements ml.DistributedClassifier.
func (s *SLR) NewAccumulator() ml.Accumulator {
	w := make([][]float64, len(s.w))
	for c := range w {
		w[c] = append([]float64(nil), s.w[c]...)
	}
	return &slrAccumulator{cfg: s.cfg, w: w, probs: make([]float64, len(w))}
}

// Observe implements ml.Accumulator.
func (a *slrAccumulator) Observe(in ml.Instance) {
	if !in.IsLabeled() || in.Label >= a.cfg.NumClasses || !in.Valid() {
		return
	}
	weight := in.Weight
	if weight <= 0 {
		weight = 1
	}
	sgdStep(a.w, a.probs, in, a.cfg, weight)
	a.count++
}

// Count implements ml.Accumulator.
func (a *slrAccumulator) Count() int64 { return a.count }

// ApplyAccumulators implements ml.DistributedClassifier: the new global
// weights are the count-weighted average of the locally trained copies.
// Accumulators that saw no data do not dilute the average.
func (s *SLR) ApplyAccumulators(accs []ml.Accumulator) {
	var total int64
	for _, raw := range accs {
		if acc, ok := raw.(*slrAccumulator); ok {
			total += acc.count
		}
	}
	if total == 0 {
		return
	}
	merged := make([][]float64, len(s.w))
	for c := range merged {
		merged[c] = make([]float64, len(s.w[c]))
	}
	for _, raw := range accs {
		acc, ok := raw.(*slrAccumulator)
		if !ok || acc.count == 0 {
			continue
		}
		frac := float64(acc.count) / float64(total)
		for c := range merged {
			for i := range merged[c] {
				merged[c][i] += frac * acc.w[c][i]
			}
		}
	}
	s.w = merged
	s.trainCount += total
	s.epoch++
}
