package stream

import (
	"math"

	"redhanded/internal/norm"
)

// gaussianObserver summarises the distribution of one numeric feature per
// class at a leaf: a Gaussian estimator (Welford) per class plus the
// observed feature range. This is the standard MOA/streamDM numeric
// attribute observer; candidate thresholds are evaluated against the
// Gaussian CDFs, giving O(1) memory per (leaf, feature, class).
type gaussianObserver struct {
	PerClass []norm.Welford
	Range    norm.RangeStat
}

func newGaussianObserver(numClasses int) *gaussianObserver {
	return &gaussianObserver{PerClass: make([]norm.Welford, numClasses)}
}

// observe folds a (value, class, weight) triple into the estimator as one
// Chan-style merge of a synthetic single-point summary (a weight-w stack
// of the same value has mean value and zero variance). Using the same
// merge arithmetic as the distributed delta path makes a direct Train and
// a one-instance accumulator merge bit-identical, which is what lets a
// batch-size-1 cluster run reproduce the sequential engine exactly.
func (g *gaussianObserver) observe(value float64, class int, weight float64) {
	if class < 0 || class >= len(g.PerClass) || weight <= 0 {
		return
	}
	n := int64(math.Ceil(weight))
	g.PerClass[class].Merge(norm.Welford{N: n, Mean: value})
	g.Range.Merge(norm.RangeStat{N: n, Min: value, Max: value})
}

// merge combines another observer (a task-local delta) into this one.
func (g *gaussianObserver) merge(other *gaussianObserver) {
	for c := range g.PerClass {
		if c < len(other.PerClass) {
			g.PerClass[c].Merge(other.PerClass[c])
		}
	}
	g.Range.Merge(other.Range)
}

// clone returns a deep copy.
func (g *gaussianObserver) clone() *gaussianObserver {
	cp := &gaussianObserver{
		PerClass: append([]norm.Welford(nil), g.PerClass...),
		Range:    g.Range,
	}
	return cp
}

// gaussianCDF returns P(X <= x) for a normal with the given mean/std.
func gaussianCDF(x, mean, std float64) float64 {
	if std <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-mean)/(std*math.Sqrt2)))
}

// candidateSplit describes the best threshold found for one feature.
type candidateSplit struct {
	Feature   int
	Threshold float64
	Merit     float64
	Valid     bool
}

// bestSplit evaluates numCandidates equally spaced thresholds between the
// observed min and max and returns the threshold with the highest merit
// under the criterion. preSplit is the leaf's class-count distribution;
// left and right are caller-owned scratch of the same length.
//
//redvet:noalloc gate=TrainStep
func (g *gaussianObserver) bestSplit(crit Criterion, preSplit []float64, feature, numCandidates int, left, right []float64) candidateSplit {
	out := candidateSplit{Feature: feature}
	lo, hi := g.Range.Min, g.Range.Max
	if g.Range.N == 0 || hi <= lo {
		return out
	}
	for i := 1; i <= numCandidates; i++ {
		t := lo + (hi-lo)*float64(i)/float64(numCandidates+1)
		for c := range preSplit {
			w := &g.PerClass[c]
			n := float64(w.N)
			if n == 0 {
				left[c], right[c] = 0, 0
				continue
			}
			frac := gaussianCDF(t, w.Mean, w.Std())
			left[c] = n * frac
			right[c] = n * (1 - frac)
		}
		merit := crit.splitMerit(preSplit, left, right)
		if !out.Valid || merit > out.Merit {
			out.Merit = merit
			out.Threshold = t
			out.Valid = true
		}
	}
	return out
}
