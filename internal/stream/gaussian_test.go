package stream

import (
	"math"
	"testing"
	"testing/quick"

	"redhanded/internal/ml"
)

func TestGaussianObserverMergeEqualsSequential(t *testing.T) {
	f := func(a, b []float64, classesRaw []uint8) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, math.Mod(v, 1e6))
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		classOf := func(i int) int {
			if len(classesRaw) == 0 {
				return i % 2
			}
			return int(classesRaw[i%len(classesRaw)]) % 2
		}
		o1 := newGaussianObserver(2)
		o2 := newGaussianObserver(2)
		all := newGaussianObserver(2)
		for i, v := range a {
			o1.observe(v, classOf(i), 1)
			all.observe(v, classOf(i), 1)
		}
		for i, v := range b {
			o2.observe(v, classOf(len(a)+i), 1)
			all.observe(v, classOf(len(a)+i), 1)
		}
		o1.merge(o2)
		for c := 0; c < 2; c++ {
			if o1.PerClass[c].N != all.PerClass[c].N {
				return false
			}
			if all.PerClass[c].N > 0 {
				scale := math.Max(1, math.Abs(all.PerClass[c].Mean))
				if math.Abs(o1.PerClass[c].Mean-all.PerClass[c].Mean)/scale > 1e-9 {
					return false
				}
			}
		}
		return o1.Range.N == all.Range.N &&
			(all.Range.N == 0 || (o1.Range.Min == all.Range.Min && o1.Range.Max == all.Range.Max))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianObserverBestSplitSeparatesClasses(t *testing.T) {
	obs := newGaussianObserver(2)
	rng := ml.NewRNG(1)
	// Class 0 around 0, class 1 around 10.
	for i := 0; i < 2000; i++ {
		obs.observe(rng.NormFloat64(), 0, 1)
		obs.observe(10+rng.NormFloat64(), 1, 1)
	}
	pre := []float64{2000, 2000}
	cand := obs.bestSplit(InfoGain, pre, 0, 10, make([]float64, 2), make([]float64, 2))
	if !cand.Valid {
		t.Fatalf("no candidate found")
	}
	if cand.Threshold < 2 || cand.Threshold > 8 {
		t.Fatalf("threshold %v not between the classes", cand.Threshold)
	}
	if cand.Merit < 0.8 {
		t.Fatalf("merit %v too low for a near-perfect split", cand.Merit)
	}
}

func TestGaussianObserverBestSplitDegenerate(t *testing.T) {
	obs := newGaussianObserver(2)
	// Constant feature: no split possible.
	for i := 0; i < 100; i++ {
		obs.observe(5, i%2, 1)
	}
	cand := obs.bestSplit(InfoGain, []float64{50, 50}, 0, 10, make([]float64, 2), make([]float64, 2))
	if cand.Valid {
		t.Fatalf("constant feature produced a split: %+v", cand)
	}
	empty := newGaussianObserver(2)
	if cand := empty.bestSplit(Gini, []float64{0, 0}, 0, 10, make([]float64, 2), make([]float64, 2)); cand.Valid {
		t.Fatalf("empty observer produced a split")
	}
}

func TestGaussianObserverWeightedObserve(t *testing.T) {
	a := newGaussianObserver(2)
	b := newGaussianObserver(2)
	a.observe(3, 1, 4)
	for i := 0; i < 4; i++ {
		b.observe(3, 1, 1)
	}
	if a.PerClass[1].N != b.PerClass[1].N || a.PerClass[1].Mean != b.PerClass[1].Mean {
		t.Fatalf("weighted observe != repeated observe")
	}
}

func TestGaussianCDF(t *testing.T) {
	if v := gaussianCDF(0, 0, 1); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("CDF(0;0,1) = %v", v)
	}
	if v := gaussianCDF(10, 0, 1); v < 0.999 {
		t.Fatalf("CDF(10;0,1) = %v", v)
	}
	// Zero std: step function at the mean.
	if gaussianCDF(1, 2, 0) != 0 || gaussianCDF(3, 2, 0) != 1 {
		t.Fatalf("degenerate CDF wrong")
	}
}
