package eval

// Point is one sample of a metric curve: the metric value after Instances
// instances had been processed. The paper's figures plot F1 against tweets
// processed (in thousands).
type Point struct {
	Instances int64
	Value     float64
}

// Prequential implements the test-then-train evaluation scheme: each
// labeled instance is first used to test the model, then to train it. It
// maintains both cumulative metrics and a periodically sampled F1 curve.
type Prequential struct {
	matrix     *ConfusionMatrix
	sampleStep int64
	curve      []Point
	metric     func(*ConfusionMatrix) float64
}

// NewPrequential creates an evaluator for k classes that samples the curve
// every sampleStep instances (0 disables curve collection). The sampled
// metric defaults to weighted F1, matching the paper's figures.
func NewPrequential(k int, sampleStep int64) *Prequential {
	return &Prequential{
		matrix:     NewConfusionMatrix(k),
		sampleStep: sampleStep,
		metric:     (*ConfusionMatrix).WeightedF1,
	}
}

// SetMetric overrides the curve metric (e.g. accuracy for the Sarcasm
// dataset in Fig. 17).
func (p *Prequential) SetMetric(metric func(*ConfusionMatrix) float64) {
	p.metric = metric
}

// Record registers one tested instance (before the model trains on it).
func (p *Prequential) Record(trueClass, predClass int) {
	p.matrix.Add(trueClass, predClass)
	if p.sampleStep > 0 && p.matrix.Total()%p.sampleStep == 0 {
		p.curve = append(p.curve, Point{Instances: p.matrix.Total(), Value: p.metric(p.matrix)})
	}
}

// Matrix exposes the cumulative confusion matrix.
func (p *Prequential) Matrix() *ConfusionMatrix { return p.matrix }

// Curve returns the sampled metric-over-time points.
func (p *Prequential) Curve() []Point { return append([]Point(nil), p.curve...) }

// Summary returns the cumulative headline metrics.
func (p *Prequential) Summary() Report { return p.matrix.Summary() }
