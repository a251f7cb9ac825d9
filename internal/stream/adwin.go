package stream

import "math"

// adwinBucket is an exponential-histogram bucket: n observations with their
// sum and sum of squared deviations (for variance, merged Chan-style).
type adwinBucket struct {
	n   float64
	sum float64
	m2  float64
}

func (b adwinBucket) mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / b.n
}

func mergeBuckets(a, b adwinBucket) adwinBucket {
	if a.n == 0 {
		return b
	}
	if b.n == 0 {
		return a
	}
	delta := b.mean() - a.mean()
	total := a.n + b.n
	return adwinBucket{
		n:   total,
		sum: a.sum + b.sum,
		m2:  a.m2 + b.m2 + delta*delta*a.n*b.n/total,
	}
}

// ADWIN (ADaptive WINdowing, Bifet & Gavaldà 2007) maintains a
// variable-length window over a stream of real values and shrinks it
// whenever two sub-windows exhibit distinct enough means, signalling
// concept drift. It backs the Adaptive Random Forest's warning and drift
// detectors. Memory is O(M log n) via an exponential histogram.
type ADWIN struct {
	// Delta is the confidence parameter: smaller values make detection
	// more conservative.
	Delta float64

	rows          [][]adwinBucket // rows[i] holds buckets of 2^i items, oldest first
	flat          []adwinBucket   // flatten's result, reused by every cut test
	maxPerRow     int
	width         float64
	total         float64
	sinceCheck    int
	checkInterval int
	drifts        int
	lastIncrease  bool
}

// NewADWIN returns a detector with the given confidence delta in (0, 1).
func NewADWIN(delta float64) *ADWIN {
	if delta <= 0 || delta >= 1 {
		delta = 0.002
	}
	return &ADWIN{Delta: delta, maxPerRow: 5, checkInterval: 32}
}

// Width returns the current window length.
func (a *ADWIN) Width() int { return int(a.width) }

// Mean returns the mean of the current window.
func (a *ADWIN) Mean() float64 {
	if a.width == 0 {
		return 0
	}
	return a.total / a.width
}

// Drifts returns how many drifts have been detected so far.
func (a *ADWIN) Drifts() int { return a.drifts }

// IncreaseDetected reports whether the most recent detection saw the
// stream mean increasing (newer window above older window). Consumers that
// monitor error rates use this to react only to degradation, not to
// improvement.
func (a *ADWIN) IncreaseDetected() bool { return a.lastIncrease }

// Add folds one value into the window and returns true when drift was
// detected (and the window shrunk).
func (a *ADWIN) Add(x float64) bool {
	a.insert(adwinBucket{n: 1, sum: x})
	a.width++
	a.total += x
	a.sinceCheck++
	if a.sinceCheck < a.checkInterval || a.width < 10 {
		return false
	}
	a.sinceCheck = 0
	return a.detectAndShrink()
}

func (a *ADWIN) insert(b adwinBucket) {
	if len(a.rows) == 0 {
		a.rows = append(a.rows, nil)
	}
	a.rows[0] = append(a.rows[0], b)
	for i := 0; i < len(a.rows); i++ {
		if len(a.rows[i]) <= a.maxPerRow {
			break
		}
		merged := mergeBuckets(a.rows[i][0], a.rows[i][1])
		a.rows[i] = a.rows[i][:copy(a.rows[i], a.rows[i][2:])]
		if i+1 == len(a.rows) {
			a.rows = append(a.rows, nil)
		}
		a.rows[i+1] = append(a.rows[i+1], merged)
	}
}

// flatten returns all buckets ordered oldest to newest, valid until the
// next call.
func (a *ADWIN) flatten() []adwinBucket {
	a.flat = a.flat[:0]
	for i := len(a.rows) - 1; i >= 0; i-- {
		a.flat = append(a.flat, a.rows[i]...)
	}
	return a.flat
}

// detectAndShrink runs the ADWIN cut test over every bucket boundary,
// dropping the oldest bucket while any cut shows significantly different
// means, and returns whether any shrink happened.
func (a *ADWIN) detectAndShrink() bool {
	shrunk := false
	for a.tryOneShrink() {
		shrunk = true
		a.drifts++
	}
	return shrunk
}

func (a *ADWIN) tryOneShrink() bool {
	buckets := a.flatten()
	if len(buckets) < 2 {
		return false
	}
	whole := adwinBucket{}
	for _, b := range buckets {
		whole = mergeBuckets(whole, b)
	}
	variance := 0.0
	if whole.n > 1 {
		variance = whole.m2 / whole.n
	}
	logTerm := math.Log(2 * math.Log(math.Max(whole.n, math.E)) / a.Delta)

	prefix := adwinBucket{}
	for i := 0; i < len(buckets)-1; i++ {
		prefix = mergeBuckets(prefix, buckets[i])
		n0 := prefix.n
		n1 := whole.n - n0
		if n0 < 5 || n1 < 5 {
			continue
		}
		u0 := prefix.mean()
		u1 := (whole.sum - prefix.sum) / n1
		m := 1 / (1/n0 + 1/n1)
		epsCut := math.Sqrt(2/m*variance*logTerm) + 2/(3*m)*logTerm
		if math.Abs(u0-u1) > epsCut {
			a.lastIncrease = u1 > u0
			a.dropOldest()
			return true
		}
	}
	return false
}

// dropOldest removes the oldest bucket (largest row, index 0).
func (a *ADWIN) dropOldest() {
	for i := len(a.rows) - 1; i >= 0; i-- {
		if len(a.rows[i]) == 0 {
			continue
		}
		b := a.rows[i][0]
		a.rows[i] = a.rows[i][:copy(a.rows[i], a.rows[i][1:])]
		a.width -= b.n
		a.total -= b.sum
		return
	}
}
