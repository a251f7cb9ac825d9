package norm

import (
	"encoding/binary"
	"math"
	"testing"

	"redhanded/internal/feature"
)

// fuzzPalette is what a fuzz byte below len(fuzzPalette) decodes to: the
// values where a comparison or an interpolation can go wrong.
var fuzzPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300, -1e300, 3, 3, 7,
}

// FuzzNormalizerMatchesReference holds the flat fold to the parent's
// (reference_test.go) on arbitrary streams: every normalized value in every
// mode, an unknown mode included, and every statistic, bit for bit, after
// each observation. Bytes decode to palette values (NaN, ±Inf, ±0, extremes),
// small multiples of 1/8 (ties), raw float64s (0xfd + 8 bytes), a clone
// merged into itself (0xfe) or a fresh two-observation delta merged in
// (0xff); every third value completes a vector. Streams shorter than 15
// values keep the estimators below their five-observation initialization.
// Only the first maxMerges merges apply: each self-merge doubles the counts,
// and sixty of them overflow int64 in both implementations alike.
func FuzzNormalizerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{4, 3, 50, 0xfe, 60, 70, 80, 0xff, 90, 100, 110})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0xfe, 3, 3, 3})
	f.Add([]byte{8, 9, 10, 11, 12, 13, 14, 15, 40, 41, 42, 43, 44, 45, 46, 47, 200, 201, 0xff, 5, 6, 7})
	f.Add([]byte{0xfd, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 20, 30, 0xfe, 0xfd, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim, maxMerges = 3, 8
		live, ref := NewFeatureStats(dim), newRefStats(dim)
		merges := 0
		x := make([]float64, 0, dim)
		var last []float64
		var got, want []float64
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b >= 0xfe {
				if merges++; merges > maxMerges {
					continue
				}
			}
			switch {
			case b == 0xfe:
				live.Merge(live.Clone())
				ref.Merge(ref.Clone())
			case b == 0xff:
				if last == nil {
					continue
				}
				d, rd := NewFeatureStats(dim), newRefStats(dim)
				d.Observe(last)
				d.Observe(last)
				rd.Observe(last)
				rd.Observe(last)
				live.Merge(d)
				ref.Merge(rd)
			case b == 0xfd && len(data) >= 8:
				x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			case int(b) < len(fuzzPalette):
				x = append(x, fuzzPalette[b])
			default:
				x = append(x, float64(int(b)-128)/8)
			}
			if len(x) < dim {
				continue
			}
			live.Observe(x)
			ref.Observe(x)
			requireSameStats(t, live, ref)
			for mode := None; mode <= ZScore+1; mode++ {
				got = (&Normalizer{Mode: mode, Stats: live}).Normalize(x, got)
				want = ref.Normalize(mode, x, want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("mode %v, x %v, feature %d: %v, reference %v", mode, x, i, got[i], want[i])
					}
				}
			}
			last = append(last[:0], x...)
			x = x[:0]
		}
	})
}

// requireSameStats compares every statistic bit for bit.
func requireSameStats(t *testing.T, fs *FeatureStats, ref *refStats) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range ref.Welford {
		w, rw := fs.Welford[i], ref.Welford[i]
		if w.N != rw.N || !same(w.Mean, rw.Mean) || !same(w.M2, rw.M2) {
			t.Fatalf("feature %d Welford %+v, reference %+v", i, w, rw)
		}
		r, rr := fs.Range[i], ref.Range[i]
		if r.N != rr.N || !same(r.Min, rr.Min) || !same(r.Max, rr.Max) {
			t.Fatalf("feature %d range %+v, reference %+v", i, r, rr)
		}
		for k, pair := range [2]struct {
			q *P2Quantile
			r *refP2
		}{{&fs.Q1[i], ref.Q1[i]}, {&fs.Q3[i], ref.Q3[i]}} {
			q, r := pair.q, pair.r
			ok := q.Count == r.Count && same(q.P, r.P) && len(q.Initial) == len(r.Initial)
			for m := 0; ok && m < 5; m++ {
				ok = same(q.Heights[m], r.Heights[m]) && same(q.Pos[m], r.Pos[m]) &&
					same(q.Desired[m], r.Desired[m]) && same(q.Incr[m], r.Incr[m])
			}
			for m := 0; ok && m < len(r.Initial); m++ {
				ok = same(q.Initial[m], r.Initial[m])
			}
			if !ok {
				t.Fatalf("feature %d quantile %d: %+v, reference %+v", i, k, *q, *r)
			}
		}
	}
}

// warmFold returns vectors of the fold stream and a normalizer that has
// observed them all, so every estimator is past its initialization.
func warmFold(t testing.TB) ([][]float64, *Normalizer) {
	xs := foldVectors(t, 1000)
	n := NewNormalizer(MinMaxRobust, feature.NumFeatures)
	for _, x := range xs {
		n.Observe(x)
	}
	return xs, n
}

// TestNormalizeFoldZeroAlloc pins the NormalizeFold redvet gate: on warm
// statistics, Observe followed by Normalize into a right-sized vector
// allocates nothing, in every mode.
func TestNormalizeFoldZeroAlloc(t *testing.T) {
	xs, n := warmFold(t)
	dst := make([]float64, feature.NumFeatures)
	for _, mode := range foldModes {
		n.Mode = mode
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			x := xs[i%len(xs)]
			i++
			n.Observe(x)
			dst = n.Normalize(x, dst)
		})
		if allocs != 0 {
			t.Fatalf("mode %v: Observe+Normalize allocates %v per vector", mode, allocs)
		}
	}
}

// BenchmarkNormalizerFold is the paper's normalize step on one tweet: fold
// the raw vector into the statistics, then normalize it (robust minmax, the
// pipeline default) into a reused vector.
func BenchmarkNormalizerFold(b *testing.B) {
	xs, n := warmFold(b)
	dst := make([]float64, feature.NumFeatures)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		n.Observe(x)
		dst = n.Normalize(x, dst)
	}
}
