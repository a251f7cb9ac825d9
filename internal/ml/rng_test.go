package ml

import (
	"math"
	"slices"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatalf("zero seed produced a stuck generator")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(5) bucket %d grossly unbalanced: %d/50000", i, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(1)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d/64 collisions", same)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(13)
	n := 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(6)
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-6) > 0.1 {
		t.Fatalf("Poisson(6) mean = %v, want ~6", mean)
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatalf("Poisson of non-positive lambda should be 0")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation")
		}
		seen[v] = true
	}
}

func TestRNGSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(19)
	s := r.SampleWithoutReplacement(10, 4)
	if len(s) != 4 {
		t.Fatalf("sample size = %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("sample has duplicates or out-of-range values: %v", s)
		}
		seen[v] = true
	}
	all := r.SampleWithoutReplacement(3, 10)
	if len(all) != 3 {
		t.Fatalf("oversized k should return n items, got %d", len(all))
	}

	// Perm, PermInto and SampleWithoutReplacement draw what the allocating
	// Perm drew before PermInto existed (refPerm), and leave the generator
	// in the same state.
	for _, n := range []int{0, 1, 2, 3, 7, 40, 257} {
		ref, perm, into, sample := NewRNG(23), NewRNG(23), NewRNG(23), NewRNG(23)
		p := make([]int, n)
		for round := 0; round < 3; round++ {
			want := refPerm(ref, n)
			into.PermInto(p)
			for name, got := range map[string][]int{
				"Perm": perm.Perm(n), "PermInto": p, "SampleWithoutReplacement": sample.SampleWithoutReplacement(n, n/2),
			} {
				if !slices.Equal(got, want[:len(got)]) {
					t.Fatalf("n=%d round %d: %s = %v, want %v", n, round, name, got, want)
				}
			}
		}
		for name, r := range map[string]*RNG{"Perm": perm, "PermInto": into, "SampleWithoutReplacement": sample} {
			if r.State() != ref.State() {
				t.Fatalf("n=%d: %s left the generator at %#x, want %#x", n, name, r.State(), ref.State())
			}
		}
	}
}

// refPerm is Perm as it was written before PermInto: allocate, fill, then
// swap down from the top.
func refPerm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
