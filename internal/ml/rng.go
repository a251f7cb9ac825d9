package ml

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64star). It is used instead of math/rand so that every stochastic
// component in the system can be seeded explicitly and split reproducibly
// across parallel tasks without locking.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. A zero seed is
// remapped to a fixed non-zero constant because xorshift cannot escape the
// all-zero state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives a new independent generator from this one. The derived
// stream is decorrelated via a SplitMix64 finalizer over the parent state.
func (r *RNG) Split() *RNG {
	z := r.Uint64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return NewRNG(z ^ (z >> 31))
}

// SeedAt derives a decorrelated seed for the (seed, counter) pair with the
// SplitMix64 finalizer. It is the basis for counter-based (stateless)
// random streams: every caller that knows the logical position of an event
// draws the same values for it, no matter which process or execution order
// reached the event — the property the distributed training paths rely on
// to reproduce sequential results exactly.
func SeedAt(seed, counter uint64) uint64 {
	z := seed + counter*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// State exposes the generator's internal state for serialization.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured with State. A zero state is remapped
// like a zero seed (xorshift cannot escape all-zero).
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("ml: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Poisson returns a Poisson(lambda) variate using Knuth's algorithm, which
// is adequate for the small lambda values (≤ 10) used by online bagging.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // numerical safety net
			return k
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)), making
// the same draws Perm(len(p)) makes.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). When k >= n it returns all n indices in random order.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	p := make([]int, n)
	r.PermInto(p)
	if k >= n {
		return p
	}
	return p[:k]
}
