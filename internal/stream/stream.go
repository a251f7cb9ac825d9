// Package stream implements the streaming machine-learning methods the
// detection framework builds on: the Hoeffding Tree incremental decision
// tree (Domingos & Hulten 2000), the Adaptive Random Forest ensemble
// (Gomes et al. 2017) with ADWIN drift detection (Bifet & Gavaldà 2007),
// and Streaming Logistic Regression trained by stochastic gradient descent.
//
// All learners train on each instance exactly once (the streaming
// paradigm), support prequential evaluation, and implement
// ml.DistributedClassifier so the micro-batch engines can train them in
// parallel: tasks accumulate local sufficient-statistic deltas against a
// frozen view of the global model and the driver merges the deltas.
//
// Every learner also has a wire codec (see codec.go), so all three
// kinds — HT, SLR, and ARF — run on the distributed runtime the same way:
// one MarshalBinary encoding is the broadcast and the checkpoint, and
// StatefulAccumulator deltas ship back to the driver. Decoders check every
// encoding's shape against the model it must fit, so a malformed blob is
// an error, never a panic or a model that cannot predict. The ARF is also
// a DriftReporter, which surfaces its per-member ADWIN
// warning/drift/replacement counters through engine stats, the metrics
// registry, and the serving API.
package stream

import "math"

func sigmoid(z float64) float64 {
	// Guard against overflow for extreme margins.
	if z > 35 {
		return 1
	}
	if z < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

func log2(x float64) float64 { return math.Log2(x) }
