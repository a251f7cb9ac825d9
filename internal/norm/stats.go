// Package norm implements the streaming normalization step of the pipeline:
// incrementally-maintained per-feature statistics (mean/variance, min/max,
// quantiles) and the paper's three normalization schemes — minmax, minmax
// without outliers, and z-score. All statistics are mergeable so they can be
// computed by parallel tasks over partitions and combined by the driver.
package norm

import "math"

// Welford maintains running mean and variance using Welford's algorithm.
// The zero value is an empty accumulator.
type Welford struct {
	N    int64
	Mean float64
	M2   float64
}

// Add folds one observation into the statistics.
//
//redvet:noalloc gate=NormalizeFold
func (w *Welford) Add(x float64) {
	w.N++
	delta := x - w.Mean
	w.Mean += delta / float64(w.N)
	w.M2 += delta * (x - w.Mean)
}

// Var returns the population variance (0 when fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into this one (Chan et al. parallel
// update), leaving other untouched.
func (w *Welford) Merge(other Welford) {
	if other.N == 0 {
		return
	}
	if w.N == 0 {
		*w = other
		return
	}
	n1, n2 := float64(w.N), float64(other.N)
	delta := other.Mean - w.Mean
	total := n1 + n2
	w.Mean += delta * n2 / total
	w.M2 += other.M2 + delta*delta*n1*n2/total
	w.N += other.N
}

// RangeStat tracks the observed range of a feature. The zero value is empty.
type RangeStat struct {
	N   int64
	Min float64
	Max float64
}

// Add folds one observation into the range.
//
//redvet:noalloc gate=NormalizeFold
func (m *RangeStat) Add(x float64) {
	if m.N == 0 {
		m.Min, m.Max = x, x
	} else {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	m.N++
}

// Merge combines another range tracker into this one.
func (m *RangeStat) Merge(other RangeStat) {
	if other.N == 0 {
		return
	}
	if m.N == 0 {
		*m = other
		return
	}
	if other.Min < m.Min {
		m.Min = other.Min
	}
	if other.Max > m.Max {
		m.Max = other.Max
	}
	m.N += other.N
}

// P2Quantile estimates a single quantile online using the P² algorithm
// (Jain & Chlamtac 1985) with five markers and O(1) memory.
type P2Quantile struct {
	P       float64    // target quantile in (0,1)
	Count   int64      // observations seen
	Heights [5]float64 // marker heights
	Pos     [5]float64 // marker positions
	Desired [5]float64 // desired marker positions
	Incr    [5]float64 // desired position increments
	Initial []float64  // first five observations before initialization (exported for gob)
}

// NewP2Quantile returns an estimator for quantile p in (0,1).
func NewP2Quantile(p float64) *P2Quantile {
	q := &P2Quantile{P: p}
	q.Incr = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Add folds one observation into the estimate.
//
//redvet:noalloc gate=NormalizeFold
func (q *P2Quantile) Add(x float64) {
	q.Count++
	if q.Count <= 5 {
		q.Initial = append(q.Initial, x)
		if q.Count == 5 {
			insertionSort(q.Initial)
			copy(q.Heights[:], q.Initial)
			q.Initial = nil
			for i := 0; i < 5; i++ {
				q.Pos[i] = float64(i + 1)
			}
			q.Desired = [5]float64{1, 1 + 2*q.P, 1 + 4*q.P, 3 + 2*q.P, 5}
		}
		return
	}

	// Find the cell k, Heights[k] <= x < Heights[k+1], and clamp extreme
	// markers. Only a NaN falls through every case.
	var k int
	switch {
	case x < q.Heights[0]:
		q.Heights[0] = x
		k = 0
	case x >= q.Heights[4]:
		q.Heights[4] = x
		k = 3
	case x < q.Heights[1]:
		k = 0
	case x < q.Heights[2]:
		k = 1
	case x < q.Heights[3]:
		k = 2
	case x < q.Heights[4]:
		k = 3
	default:
		k = 4
	}

	for i := k + 1; i < 5; i++ {
		q.Pos[i]++
	}
	// Incr[0] is 0: the minimum's desired position never moves.
	q.Desired[1] += q.Incr[1]
	q.Desired[2] += q.Incr[2]
	q.Desired[3] += q.Incr[3]
	q.Desired[4] += q.Incr[4]

	// Adjust interior markers towards their desired positions.
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

func (q *P2Quantile) parabolic(i int, d float64) float64 {
	h0, h1, h2 := q.Heights[i-1], q.Heights[i], q.Heights[i+1]
	n0, n1, n2 := q.Pos[i-1], q.Pos[i], q.Pos[i+1]
	return h1 + d/(n2-n0)*((n1-n0+d)*(h2-h1)/(n2-n1)+
		(n2-n1-d)*(h1-h0)/(n1-n0))
}

func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.Heights[i] + d*(q.Heights[j]-q.Heights[i])/(q.Pos[j]-q.Pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it interpolates over the sorted buffer.
func (q *P2Quantile) Value() float64 {
	if q.Count == 0 {
		return 0
	}
	if q.Count < 5 {
		buf := append([]float64(nil), q.Initial...)
		insertionSort(buf)
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

// Merge approximately combines another estimator for the same quantile by
// count-weighted averaging of marker heights. This is not exact (P² is not
// closed under merging) but is accurate enough for outlier fencing, which
// only needs coarse Q1/Q3 estimates.
func (q *P2Quantile) Merge(other *P2Quantile) {
	if other.Count == 0 {
		return
	}
	if q.Count == 0 {
		*q = *other
		q.Initial = append([]float64(nil), other.Initial...)
		return
	}
	if q.Count < 5 || other.Count < 5 {
		// Degenerate sizes: replay the smaller one's estimate through Add.
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
	// Extremes are exact under merging.
	q.Heights[0] = math.Min(q.Heights[0], other.Heights[0])
	q.Heights[4] = math.Max(q.Heights[4], other.Heights[4])
	q.Count += other.Count
	// Recompute marker and desired positions canonically for the merged
	// count, preserving monotonicity.
	n := float64(q.Count)
	q.Pos = [5]float64{1, 1 + (n-1)*q.P/2, 1 + (n-1)*q.P, 1 + (n-1)*(1+q.P)/2, n}
	q.Desired = q.Pos
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
