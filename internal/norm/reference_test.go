package norm

import "math"

// This file keeps the parent commit's fold and normalize, read exactly:
// FeatureStats with one heap-allocated P² estimator per feature and
// quantile, the estimator's cell-search loop, and a Normalize that switches
// on the mode once per feature. TestFoldGolden pins it, through the same
// stream, to testdata/parent_fold.golden, and FuzzNormalizerMatchesReference
// holds the flat fold to it on hostile input. Welford and RangeStat did not
// change and are shared; everything else is a copy.

// refP2 is the parent's P2Quantile.
type refP2 struct {
	P       float64
	Count   int64
	Heights [5]float64
	Pos     [5]float64
	Desired [5]float64
	Incr    [5]float64
	Initial []float64
}

func newRefP2(p float64) *refP2 {
	q := &refP2{P: p}
	q.Incr = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

func (q *refP2) Add(x float64) {
	q.Count++
	if q.Count <= 5 {
		q.Initial = append(q.Initial, x)
		if q.Count == 5 {
			refInsertionSort(q.Initial)
			copy(q.Heights[:], q.Initial)
			q.Initial = nil
			for i := 0; i < 5; i++ {
				q.Pos[i] = float64(i + 1)
			}
			q.Desired = [5]float64{1, 1 + 2*q.P, 1 + 4*q.P, 3 + 2*q.P, 5}
		}
		return
	}
	var k int
	switch {
	case x < q.Heights[0]:
		q.Heights[0] = x
		k = 0
	case x >= q.Heights[4]:
		q.Heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.Heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.Pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.Desired[i] += q.Incr[i]
	}
	for i := 1; i <= 3; i++ {
		d := q.Desired[i] - q.Pos[i]
		if (d >= 1 && q.Pos[i+1]-q.Pos[i] > 1) || (d <= -1 && q.Pos[i-1]-q.Pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.Heights[i-1] < h && h < q.Heights[i+1] {
				q.Heights[i] = h
			} else {
				q.Heights[i] = q.linear(i, sign)
			}
			q.Pos[i] += sign
		}
	}
}

func (q *refP2) parabolic(i int, d float64) float64 {
	h := q.Heights
	n := q.Pos
	return h[i] + d/(n[i+1]-n[i-1])*((n[i]-n[i-1]+d)*(h[i+1]-h[i])/(n[i+1]-n[i])+
		(n[i+1]-n[i]-d)*(h[i]-h[i-1])/(n[i]-n[i-1]))
}

func (q *refP2) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.Heights[i] + d*(q.Heights[j]-q.Heights[i])/(q.Pos[j]-q.Pos[i])
}

func (q *refP2) Value() float64 {
	if q.Count == 0 {
		return 0
	}
	if q.Count < 5 {
		buf := append([]float64(nil), q.Initial...)
		refInsertionSort(buf)
		idx := q.P * float64(len(buf)-1)
		lo := int(idx)
		if lo >= len(buf)-1 {
			return buf[len(buf)-1]
		}
		frac := idx - float64(lo)
		return buf[lo]*(1-frac) + buf[lo+1]*frac
	}
	return q.Heights[2]
}

func (q *refP2) Merge(other *refP2) {
	if other.Count == 0 {
		return
	}
	if q.Count == 0 {
		*q = *other
		q.Initial = append([]float64(nil), other.Initial...)
		return
	}
	if q.Count < 5 || other.Count < 5 {
		v := other.Value()
		for i := int64(0); i < other.Count; i++ {
			q.Add(v)
		}
		return
	}
	w1 := float64(q.Count) / float64(q.Count+other.Count)
	w2 := 1 - w1
	for i := 0; i < 5; i++ {
		q.Heights[i] = q.Heights[i]*w1 + other.Heights[i]*w2
	}
	q.Heights[0] = math.Min(q.Heights[0], other.Heights[0])
	q.Heights[4] = math.Max(q.Heights[4], other.Heights[4])
	q.Count += other.Count
	n := float64(q.Count)
	q.Pos = [5]float64{1, 1 + (n-1)*q.P/2, 1 + (n-1)*q.P, 1 + (n-1)*(1+q.P)/2, n}
	q.Desired = q.Pos
}

// refStats is the parent's FeatureStats.
type refStats struct {
	Welford []Welford
	Range   []RangeStat
	Q1, Q3  []*refP2
}

func newRefStats(dim int) *refStats {
	fs := &refStats{
		Welford: make([]Welford, dim),
		Range:   make([]RangeStat, dim),
		Q1:      make([]*refP2, dim),
		Q3:      make([]*refP2, dim),
	}
	for i := 0; i < dim; i++ {
		fs.Q1[i] = newRefP2(0.25)
		fs.Q3[i] = newRefP2(0.75)
	}
	return fs
}

func (fs *refStats) Observe(x []float64) {
	if len(x) != len(fs.Welford) {
		return
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		fs.Welford[i].Add(v)
		fs.Range[i].Add(v)
		fs.Q1[i].Add(v)
		fs.Q3[i].Add(v)
	}
}

func (fs *refStats) Merge(other *refStats) {
	if other == nil || len(other.Welford) != len(fs.Welford) {
		return
	}
	for i := range fs.Welford {
		fs.Welford[i].Merge(other.Welford[i])
		fs.Range[i].Merge(other.Range[i])
		fs.Q1[i].Merge(other.Q1[i])
		fs.Q3[i].Merge(other.Q3[i])
	}
}

func (fs *refStats) Clone() *refStats {
	cp := newRefStats(len(fs.Welford))
	cp.Merge(fs)
	return cp
}

func (fs *refStats) count() int64 {
	if len(fs.Welford) == 0 {
		return 0
	}
	return fs.Welford[0].N
}

// Normalize is the parent's Normalizer.Normalize over refStats.
func (fs *refStats) Normalize(mode Mode, x, dst []float64) []float64 {
	if len(dst) != len(x) {
		dst = make([]float64, len(x))
	}
	if mode == None || fs.count() == 0 {
		copy(dst, x)
		return dst
	}
	for i, v := range x {
		dst[i] = fs.normalizeOne(mode, i, v)
	}
	return dst
}

func (fs *refStats) normalizeOne(mode Mode, i int, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	switch mode {
	case MinMax:
		lo, hi := fs.Range[i].Min, fs.Range[i].Max
		return refScaleClamped(v, lo, hi)
	case MinMaxRobust:
		q1, q3 := fs.Q1[i].Value(), fs.Q3[i].Value()
		iqr := q3 - q1
		lo := math.Max(fs.Range[i].Min, q1-1.5*iqr)
		hi := math.Min(fs.Range[i].Max, q3+1.5*iqr)
		return refScaleClamped(v, lo, hi)
	case ZScore:
		std := fs.Welford[i].Std()
		if std == 0 {
			return 0
		}
		return (v - fs.Welford[i].Mean) / std
	default:
		return v
	}
}

// refFold drives refStats through the fold stream.
type refFold struct{ fs *refStats }

func (r refFold) Observe(x []float64) { r.fs.Observe(x) }
func (r refFold) mergeClone()         { r.fs.Merge(r.fs.Clone()) }

func (r refFold) mergeFresh(xs [][]float64) {
	d := newRefStats(len(r.fs.Welford))
	for _, x := range xs {
		d.Observe(x)
	}
	r.fs.Merge(d)
}

func (r refFold) normalize(mode Mode, x, dst []float64) []float64 {
	return r.fs.Normalize(mode, x, dst)
}

func refScaleClamped(v, lo, hi float64) float64 {
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

func refInsertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
