package norm

import (
	"math"
	"testing"
	"testing/quick"

	"redhanded/internal/ml"
)

func observeAll(n *Normalizer, data [][]float64) {
	for _, x := range data {
		n.Observe(x)
	}
}

func TestMinMaxNormalizerRange(t *testing.T) {
	n := NewNormalizer(MinMax, 1)
	observeAll(n, [][]float64{{0}, {5}, {10}})
	if got := n.Normalize([]float64{5}, nil)[0]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Normalize(5) = %v, want 0.5", got)
	}
	if got := n.Normalize([]float64{-100}, nil)[0]; got != 0 {
		t.Fatalf("below-min should clamp to 0, got %v", got)
	}
	if got := n.Normalize([]float64{100}, nil)[0]; got != 1 {
		t.Fatalf("above-max should clamp to 1, got %v", got)
	}
}

func TestZScoreNormalizer(t *testing.T) {
	n := NewNormalizer(ZScore, 1)
	observeAll(n, [][]float64{{2}, {4}, {4}, {4}, {5}, {5}, {7}, {9}})
	// mean 5, std 2
	if got := n.Normalize([]float64{7}, nil)[0]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("z(7) = %v, want 1", got)
	}
	if got := n.Normalize([]float64{5}, nil)[0]; math.Abs(got) > 1e-12 {
		t.Fatalf("z(5) = %v, want 0", got)
	}
}

func TestZScoreConstantFeature(t *testing.T) {
	n := NewNormalizer(ZScore, 1)
	observeAll(n, [][]float64{{3}, {3}, {3}})
	if got := n.Normalize([]float64{3}, nil)[0]; got != 0 {
		t.Fatalf("constant feature z = %v, want 0", got)
	}
}

func TestRobustMinMaxShrinksOutlierInfluence(t *testing.T) {
	plain := NewNormalizer(MinMax, 1)
	robust := NewNormalizer(MinMaxRobust, 1)
	rng := ml.NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * 10 // bulk in [0,10]
		plain.Observe([]float64{v})
		robust.Observe([]float64{v})
	}
	// A massive outlier stretches plain minmax but barely moves the fences.
	plain.Observe([]float64{1e6})
	robust.Observe([]float64{1e6})
	vPlain := plain.Normalize([]float64{5}, nil)[0]
	vRobust := robust.Normalize([]float64{5}, nil)[0]
	if vPlain > 0.01 {
		t.Fatalf("plain minmax should be crushed by outlier, got %v", vPlain)
	}
	// With fences at [Q1-1.5·IQR, Q3+1.5·IQR] ≈ [0, 15] the mid-bulk value
	// keeps a meaningful normalized position instead of collapsing to ~0.
	if vRobust < 0.2 || vRobust > 0.8 {
		t.Fatalf("robust minmax should resist outlier: got %v, want in [0.2, 0.8]", vRobust)
	}
	if vRobust < vPlain*10 {
		t.Fatalf("robust (%v) should dwarf plain (%v) under outliers", vRobust, vPlain)
	}
}

func TestNoneModeCopies(t *testing.T) {
	n := NewNormalizer(None, 2)
	n.Observe([]float64{1, 2})
	out := n.Normalize([]float64{42, -7}, nil)
	if out[0] != 42 || out[1] != -7 {
		t.Fatalf("None mode altered values: %v", out)
	}
}

func TestNormalizeBeforeAnyObservation(t *testing.T) {
	n := NewNormalizer(MinMax, 1)
	out := n.Normalize([]float64{3}, nil)
	if out[0] != 3 {
		t.Fatalf("no-stats Normalize should pass through, got %v", out[0])
	}
}

func TestNormalizeHandlesNaN(t *testing.T) {
	n := NewNormalizer(MinMax, 1)
	observeAll(n, [][]float64{{0}, {10}})
	out := n.Normalize([]float64{math.NaN()}, nil)
	if out[0] != 0 {
		t.Fatalf("NaN should normalize to 0, got %v", out[0])
	}
}

func TestNormalizeReusesDst(t *testing.T) {
	n := NewNormalizer(MinMax, 2)
	observeAll(n, [][]float64{{0, 0}, {10, 10}})
	dst := make([]float64, 2)
	out := n.Normalize([]float64{5, 10}, dst)
	if &out[0] != &dst[0] {
		t.Fatalf("Normalize did not reuse dst")
	}
}

func TestMinMaxOutputAlwaysInRangeProperty(t *testing.T) {
	rng := ml.NewRNG(6)
	n := NewNormalizer(MinMax, 1)
	for i := 0; i < 100; i++ {
		n.Observe([]float64{rng.NormFloat64() * 100})
	}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got := n.Normalize([]float64{v}, nil)[0]
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRobustMinMaxOutputAlwaysInRangeProperty(t *testing.T) {
	rng := ml.NewRNG(7)
	n := NewNormalizer(MinMaxRobust, 1)
	for i := 0; i < 1000; i++ {
		n.Observe([]float64{rng.NormFloat64() * 100})
	}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		got := n.Normalize([]float64{v}, nil)[0]
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		None: "none", MinMax: "minmax", MinMaxRobust: "minmax-no-outliers",
		ZScore: "z-score", Mode(99): "unknown",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
		// ParseMode accepts every name String gives a real mode.
		if got, err := ParseMode(want); m != Mode(99) && (err != nil || got != m) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", want, got, err, m)
		}
	}
	for in, want := range map[string]Mode{"robust": MinMaxRobust, "zscore": ZScore} {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"l2", "", "unknown"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode accepted %q", bad)
		}
	}
}

func TestFeatureStatsClone(t *testing.T) {
	fs := NewFeatureStats(1)
	fs.Observe([]float64{1})
	cp := fs.Clone()
	cp.Observe([]float64{100})
	if fs.Count() != 1 {
		t.Fatalf("clone mutation leaked into original")
	}
	if cp.Count() != 2 {
		t.Fatalf("clone count = %d, want 2", cp.Count())
	}
}
