// Package core implements the paper's primary contribution: the real-time
// aggression detection pipeline of Figure 1 — preprocessing, feature
// extraction, normalization, training, prediction, alerting, evaluation,
// sampling, and labeling — over streaming ML models that update
// incrementally as labeled tweets arrive.
package core

import (
	"fmt"
	"strings"

	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// ClassScheme selects the classification problem.
type ClassScheme int

const (
	// ThreeClass distinguishes normal / abusive / hateful (c=3).
	ThreeClass ClassScheme = iota
	// TwoClass distinguishes normal / aggressive, where aggressive merges
	// abusive and hateful (c=2).
	TwoClass
)

// Classes returns the class domain of the scheme.
func (s ClassScheme) Classes() ml.Classes {
	if s == TwoClass {
		return ml.NewClasses("normal", "aggressive")
	}
	return ml.NewClasses(twitterdata.LabelNormal, twitterdata.LabelAbusive, twitterdata.LabelHateful)
}

// LabelIndex maps a dataset label to its class index under the scheme
// (-1 for unknown labels).
func (s ClassScheme) LabelIndex(label string) int {
	switch label {
	case twitterdata.LabelNormal:
		return 0
	case twitterdata.LabelAbusive:
		return 1
	case twitterdata.LabelHateful:
		if s == TwoClass {
			return 1
		}
		return 2
	default:
		return -1
	}
}

// NumClasses returns 2 or 3.
func (s ClassScheme) NumClasses() int {
	if s == TwoClass {
		return 2
	}
	return 3
}

// String returns "c=2" or "c=3", the figure legend notation.
func (s ClassScheme) String() string {
	return fmt.Sprintf("c=%d", s.NumClasses())
}

// ParseScheme parses the -classes flag values: "2" or "3" (String's "c=2"
// and "c=3" are accepted too).
func ParseScheme(s string) (ClassScheme, error) {
	switch strings.TrimPrefix(s, "c=") {
	case "2":
		return TwoClass, nil
	case "3":
		return ThreeClass, nil
	}
	return 0, fmt.Errorf("core: unknown class scheme %q (want 2 or 3)", s)
}

// ModelKind selects the streaming classifier.
type ModelKind int

const (
	// ModelHT is the Hoeffding Tree.
	ModelHT ModelKind = iota
	// ModelARF is the Adaptive Random Forest of HTs.
	ModelARF
	// ModelSLR is Streaming Logistic Regression with SGD.
	ModelSLR
)

// String returns the paper's abbreviation.
func (k ModelKind) String() string {
	switch k {
	case ModelARF:
		return "ARF"
	case ModelSLR:
		return "SLR"
	default:
		return "HT"
	}
}

// ParseModelKind parses the -model flag values, in either case: ht, arf,
// slr.
func ParseModelKind(s string) (ModelKind, error) {
	for _, k := range []ModelKind{ModelHT, ModelARF, ModelSLR} {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown model %q (want ht, arf, slr)", s)
}

// Options configures a Pipeline. The zero value plus an Options from
// DefaultOptions matches the configuration the paper's headline results
// use: HT, 3-class, preprocessing ON, minmax-without-outliers
// normalization ON, adaptive BoW ON.
type Options struct {
	Scheme        ClassScheme
	Model         ModelKind
	Preprocess    bool
	Normalization norm.Mode
	AdaptiveBoW   bool
	// SampleStep is the metric-curve sampling period in instances
	// (0 disables curve collection).
	SampleStep int64
	// AlertThreshold is the minimum prediction confidence for raising an
	// alert on a tweet predicted aggressive.
	AlertThreshold float64
	// Seed drives every stochastic component.
	Seed uint64
	// HT / ARF / SLR hyperparameters; zero values resolve to the Table I
	// selections.
	HT  stream.HTConfig
	ARF stream.ARFConfig
	SLR stream.SLRConfig
	// Users configures the per-user state store (session windows, offense
	// history, escalation scoring, memory bounds). The zero value resolves
	// to the userstate defaults: 16 shards, unbounded users, 24h idle TTL.
	Users userstate.Config
}

// defaultFeatureCacheEntries is the capacity of a pipeline's
// content-addressed extraction cache, which memoizes text-feature vectors
// for duplicate tweet texts (retweets/copypasta): large enough to cover the
// working set of recent viral texts per shard, small enough (~8k × 160B ≈
// 1.3MB) to be negligible next to the userstate store. The cache needs
// Preprocess; the legacy extraction path never consults it.
const defaultFeatureCacheEntries = 8192

// DefaultOptions returns the configuration of the paper's main experiments.
func DefaultOptions() Options {
	return Options{
		Scheme:         ThreeClass,
		Model:          ModelHT,
		Preprocess:     true,
		Normalization:  norm.MinMaxRobust,
		AdaptiveBoW:    true,
		SampleStep:     1000,
		AlertThreshold: 0.5,
		Seed:           1,
	}
}

// newModel builds the configured streaming classifier.
func newModel(o Options) Model {
	k := o.Scheme.NumClasses()
	switch o.Model {
	case ModelARF:
		cfg := o.ARF
		cfg.NumClasses = k
		cfg.NumFeatures = feature.NumFeatures
		if cfg.Seed == 0 {
			cfg.Seed = o.Seed
		}
		return stream.NewAdaptiveRandomForest(cfg)
	case ModelSLR:
		cfg := o.SLR
		cfg.NumClasses = k
		cfg.NumFeatures = feature.NumFeatures
		return stream.NewSLR(cfg)
	default:
		cfg := o.HT
		cfg.NumClasses = k
		cfg.NumFeatures = feature.NumFeatures
		return stream.NewHoeffdingTree(cfg)
	}
}
