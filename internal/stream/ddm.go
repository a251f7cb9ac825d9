package stream

import "math"

// DDM is the Drift Detection Method (Gama et al. 2004), the classic
// alternative to ADWIN: it tracks the error rate's binomial confidence
// interval and signals a warning when error exceeds the best observed
// p_min + 2*s_min, and a drift when it exceeds p_min + 3*s_min. It is
// cheaper than ADWIN (O(1) per observation, no window) but only reacts to
// error increases. The Adaptive Random Forest can be configured with
// either detector.
type DDM struct {
	n     float64
	p     float64 // running error rate
	pMin  float64
	sMin  float64
	state DriftState
	// MinInstances before the detector activates (default 30).
	MinInstances int
	drifts       int
}

// DriftState is the detector's current assessment.
type DriftState int

// Detector states.
const (
	DriftNone DriftState = iota
	DriftWarning
	DriftDetected
)

// NewDDM creates a detector.
func NewDDM() *DDM {
	return &DDM{pMin: math.Inf(1), sMin: math.Inf(1), MinInstances: 30}
}

// Add folds one error bit (1 = misclassified) and returns the new state.
// After a detected drift, internal statistics reset.
func (d *DDM) Add(errBit float64) DriftState {
	d.n++
	d.p += (errBit - d.p) / d.n
	s := math.Sqrt(d.p * (1 - d.p) / d.n)

	if d.n < float64(d.MinInstances) {
		d.state = DriftNone
		return d.state
	}
	if d.p+s <= d.pMin+d.sMin {
		d.pMin, d.sMin = d.p, s
	}
	switch {
	case d.p+s > d.pMin+3*d.sMin:
		d.state = DriftDetected
		d.drifts++
		d.reset()
	case d.p+s > d.pMin+2*d.sMin:
		d.state = DriftWarning
	default:
		d.state = DriftNone
	}
	return d.state
}

func (d *DDM) reset() {
	d.n = 0
	d.p = 0
	d.pMin = math.Inf(1)
	d.sMin = math.Inf(1)
}

// State returns the state after the last Add.
func (d *DDM) State() DriftState { return d.state }

// Drifts returns the number of drifts detected.
func (d *DDM) Drifts() int { return d.drifts }
