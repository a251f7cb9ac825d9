package norm

import (
	"fmt"
	"math"
)

// Mode selects the normalization scheme applied to feature vectors.
type Mode int

const (
	// None disables normalization (the step is optional in the pipeline).
	None Mode = iota
	// MinMax scales each feature to [0,1] using its observed min and max.
	MinMax
	// MinMaxRobust rescales min and max after removing statistical
	// outliers (Tukey fences on streaming Q1/Q3 estimates) before applying
	// minmax normalization. This is the paper's "minmax without outliers",
	// the variant its experiments select.
	MinMaxRobust
	// ZScore centers each feature to zero mean and unit standard
	// deviation.
	ZScore
)

// String returns the experiment-facing name of the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case MinMax:
		return "minmax"
	case MinMaxRobust:
		return "minmax-no-outliers"
	case ZScore:
		return "z-score"
	default:
		return "unknown"
	}
}

// ParseMode parses the -norm flag values — none, minmax, robust, zscore —
// and the names String returns.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none":
		return None, nil
	case "minmax":
		return MinMax, nil
	case "robust", "minmax-no-outliers":
		return MinMaxRobust, nil
	case "zscore", "z-score":
		return ZScore, nil
	}
	return 0, fmt.Errorf("norm: unknown normalization %q (want none, minmax, robust, zscore)", s)
}

// FeatureStats maintains the per-feature streaming statistics needed by all
// normalization modes. It is mergeable across parallel tasks. Each slice
// holds its estimators by value, so one Observe is one pass over four
// contiguous arrays.
type FeatureStats struct {
	Welford []Welford
	Range   []RangeStat
	Q1, Q3  []P2Quantile
}

// NewFeatureStats allocates statistics for dim features.
func NewFeatureStats(dim int) *FeatureStats {
	fs := &FeatureStats{
		Welford: make([]Welford, dim),
		Range:   make([]RangeStat, dim),
		Q1:      make([]P2Quantile, dim),
		Q3:      make([]P2Quantile, dim),
	}
	for i := 0; i < dim; i++ {
		fs.Q1[i] = *NewP2Quantile(0.25)
		fs.Q3[i] = *NewP2Quantile(0.75)
	}
	return fs
}

// Dim returns the number of features tracked.
func (fs *FeatureStats) Dim() int { return len(fs.Welford) }

// Count returns the number of observations folded in.
func (fs *FeatureStats) Count() int64 {
	if len(fs.Welford) == 0 {
		return 0
	}
	return fs.Welford[0].N
}

// Observe folds one feature vector into the statistics. Vectors of the
// wrong dimension are ignored.
//
//redvet:noalloc gate=NormalizeFold
func (fs *FeatureStats) Observe(x []float64) {
	if len(x) != fs.Dim() {
		return
	}
	w, r, q1, q3 := fs.Welford[:len(x)], fs.Range[:len(x)], fs.Q1[:len(x)], fs.Q3[:len(x)]
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		w[i].Add(v)
		r[i].Add(v)
		q1[i].Add(v)
		q3[i].Add(v)
	}
}

// Merge combines another statistics collector into this one.
func (fs *FeatureStats) Merge(other *FeatureStats) {
	if other == nil || other.Dim() != fs.Dim() {
		return
	}
	for i := range fs.Welford {
		fs.Welford[i].Merge(other.Welford[i])
		fs.Range[i].Merge(other.Range[i])
		fs.Q1[i].Merge(&other.Q1[i])
		fs.Q3[i].Merge(&other.Q3[i])
	}
}

// Clone returns a deep copy (used to snapshot stats for parallel tasks).
func (fs *FeatureStats) Clone() *FeatureStats {
	cp := NewFeatureStats(fs.Dim())
	cp.Merge(fs)
	return cp
}

// Normalizer applies a normalization mode backed by streaming statistics.
// Observe statistics first (or Merge pre-computed ones), then call
// Normalize; the paper notes the required statistics "can be provided as
// input or computed incrementally during the data stream processing".
type Normalizer struct {
	Mode  Mode
	Stats *FeatureStats
}

// NewNormalizer creates a normalizer for dim features.
func NewNormalizer(mode Mode, dim int) *Normalizer {
	return &Normalizer{Mode: mode, Stats: NewFeatureStats(dim)}
}

// Observe folds a raw feature vector into the statistics.
func (n *Normalizer) Observe(x []float64) { n.Stats.Observe(x) }

// Normalize writes the normalized vector into dst (allocating when dst is
// nil or mis-sized) and returns it. With Mode None the input values are
// copied unchanged; otherwise NaN and ±Inf normalize to 0.
//
//redvet:noalloc gate=NormalizeFold
func (n *Normalizer) Normalize(x []float64, dst []float64) []float64 {
	if len(dst) != len(x) {
		dst = make([]float64, len(x)) //redvet:ignore noalloc resize fallback for mis-sized callers; the pipeline and the engines pass a right-sized vector
	}
	fs := n.Stats
	if n.Mode == None || fs.Count() == 0 {
		copy(dst, x)
		return dst
	}
	dst = dst[:len(x)] // proves len(dst) == len(x) to the bounds-check pass
	switch n.Mode {
	case MinMax:
		r := fs.Range[:len(x)]
		for i, v := range x {
			dst[i] = 0
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				dst[i] = scaleClamped(v, r[i].Min, r[i].Max)
			}
		}
	case MinMaxRobust:
		r, q1s, q3s := fs.Range[:len(x)], fs.Q1[:len(x)], fs.Q3[:len(x)]
		for i, v := range x {
			dst[i] = 0
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// The middle marker is the estimate once an estimator holds five
			// observations; before, Value interpolates its buffer.
			q1, q3 := q1s[i].Heights[2], q3s[i].Heights[2]
			if q1s[i].Count < 5 {
				q1 = q1s[i].Value()
			}
			if q3s[i].Count < 5 {
				q3 = q3s[i].Value()
			}
			iqr := q3 - q1
			lo := math.Max(r[i].Min, q1-1.5*iqr)
			hi := math.Min(r[i].Max, q3+1.5*iqr)
			dst[i] = scaleClamped(v, lo, hi)
		}
	case ZScore:
		w := fs.Welford[:len(x)]
		for i, v := range x {
			dst[i] = 0
			if std := w[i].Std(); std != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				dst[i] = (v - w[i].Mean) / std
			}
		}
	default:
		for i, v := range x {
			dst[i] = 0
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				dst[i] = v
			}
		}
	}
	return dst
}

func scaleClamped(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	s := (v - lo) / (hi - lo)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
