package norm

import (
	"math"
	"testing"

	"redhanded/internal/ml"
)

func TestFeatureStatsSerializationRoundTrip(t *testing.T) {
	fs := NewFeatureStats(3)
	rng := ml.NewRNG(1)
	for i := 0; i < 5000; i++ {
		fs.Observe([]float64{rng.Float64(), rng.NormFloat64() * 10, float64(i)})
	}
	blob, err := fs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewFeatureStats(3)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != fs.Count() || restored.Dim() != fs.Dim() {
		t.Fatalf("shape mismatch after round trip")
	}
	for f := 0; f < 3; f++ {
		if restored.Welford[f].Mean != fs.Welford[f].Mean {
			t.Fatalf("feature %d mean differs", f)
		}
		if restored.Range[f] != fs.Range[f] {
			t.Fatalf("feature %d range differs", f)
		}
		if math.Abs(restored.Q1[f].Value()-fs.Q1[f].Value()) > 1e-12 {
			t.Fatalf("feature %d Q1 differs", f)
		}
	}
	// A normalizer over the restored stats behaves identically.
	a := &Normalizer{Mode: MinMaxRobust, Stats: fs}
	b := &Normalizer{Mode: MinMaxRobust, Stats: restored}
	x := []float64{0.7, 3.3, 1234}
	va := a.Normalize(x, nil)
	vb := b.Normalize(x, nil)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("normalization differs after round trip: %v vs %v", va, vb)
		}
	}
	// The restored stats must keep accepting observations.
	restored.Observe([]float64{1, 2, 3})
	if restored.Count() != fs.Count()+1 {
		t.Fatalf("restored stats cannot observe")
	}
}

func TestFeatureStatsUnmarshalGarbage(t *testing.T) {
	fs := NewFeatureStats(2)
	if err := fs.UnmarshalBinary([]byte("nope")); err == nil {
		t.Fatalf("garbage accepted")
	}
}

// TestFeatureStatsUnmarshalChecksShape: statistics arrive from other
// processes (executor deltas, the driver's broadcast), so a blob whose
// slices disagree in length, whose dimension differs from the receiver's,
// or whose quantile estimators Add and Value cannot use is refused and
// the receiver keeps its statistics. Accepted, the short slices, the
// other dimension and the unusable estimators panic a later Merge or
// Normalize.
func TestFeatureStatsUnmarshalChecksShape(t *testing.T) {
	cases := map[string]func(*FeatureStats){
		"short Range":             func(fs *FeatureStats) { fs.Range = fs.Range[:2] },
		"short Q1":                func(fs *FeatureStats) { fs.Q1 = fs.Q1[:2] },
		"long Q3":                 func(fs *FeatureStats) { fs.Q3 = append(fs.Q3, fs.Q3[0]) },
		"another dimension":       func(fs *FeatureStats) { *fs = *NewFeatureStats(4) },
		"quantile target 0":       func(fs *FeatureStats) { fs.Q1[1].P = 0 },
		"quantile target NaN":     func(fs *FeatureStats) { fs.Q3[0].P = math.NaN() },
		"negative quantile count": func(fs *FeatureStats) { fs.Q1[2].Count = -1 },
		"unbuffered early count":  func(fs *FeatureStats) { fs.Q3[1].Count, fs.Q3[1].Initial = 3, nil },
		"buffer past five":        func(fs *FeatureStats) { fs.Q1[0].Initial = []float64{1} },
		"negative Welford count":  func(fs *FeatureStats) { fs.Welford[0].N = -2 },
		"overflowing range count": func(fs *FeatureStats) { fs.Range[2].N = math.MaxInt64 },
	}
	for name, corrupt := range cases {
		bad := NewFeatureStats(3)
		for i := 0; i < 10; i++ {
			bad.Observe([]float64{float64(i), 1, -float64(i)})
		}
		corrupt(bad)
		blob, err := bad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFeatureStats(3)
		fs.Observe([]float64{1, 2, 3})
		if err := fs.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if fs.Count() != 1 || fs.Dim() != 3 || fs.Q1[0].Count != 1 {
			t.Errorf("%s: a refused blob changed the receiver", name)
		}
	}
}

// FuzzDecodeFeatureStats holds the statistics decoder to its contract:
// for any bytes, UnmarshalBinary returns an error or statistics that
// merge both ways with live ones, merge into themselves, observe, and
// normalize in every mode — never a panic. Seeds are statistics at zero,
// three (estimators still buffering) and forty observations per feature.
func FuzzDecodeFeatureStats(f *testing.F) {
	for _, n := range []int{0, 3, 40} {
		blob, err := observed(3, n).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := new(FeatureStats)
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		live := observed(got.Dim(), 7)
		live.Merge(got)
		got.Merge(live)
		got.Merge(got.Clone())
		x := make([]float64, got.Dim())
		for i := range x {
			x[i] = fuzzPalette[i%len(fuzzPalette)]
		}
		for _, mode := range []Mode{None, MinMax, MinMaxRobust, ZScore} {
			(&Normalizer{Mode: mode, Stats: got}).Normalize(x, nil)
			(&Normalizer{Mode: mode, Stats: live}).Normalize(x, nil)
		}
		got.Observe(x)
	})
}

// observed returns dim-feature statistics over n deterministic vectors.
func observed(dim, n int) *FeatureStats {
	fs := NewFeatureStats(dim)
	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		for f := range x {
			x[f] = float64((i*7+f*3)%11) - 4
		}
		fs.Observe(x)
	}
	return fs
}
