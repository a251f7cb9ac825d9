package engine

import (
	"sync"
	"sync/atomic"

	"redhanded/internal/core"
	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// classifiedRec is one prediction outcome produced by a share.
// It rides inside batchResponse, so it is wire-format-sensitive too.
//
//redvet:wire
type classifiedRec struct {
	Idx   int // position within the share
	Label int
	Pred  int
	Conf  float64
}

// shareOutput is what one share of a micro-batch hands the merge: the
// statistics delta of its tweets, one training accumulator per partition
// (in partition order), and one outcome per tweet. lo is the share's offset
// within the batch — 0 out of the kernel; the cluster driver sets it when it
// decodes a share's response.
type shareOutput struct {
	lo         int
	stats      *norm.FeatureStats
	accs       []ml.Accumulator
	classified []classifiedRec
}

// computeShare is the two-phase computation of Fig. 2, the one every
// micro-batch engine runs: RunMicroBatch over a whole batch against the
// pipeline's own components, a cluster executor over its share against the
// broadcast ones. The tweets are dealt round-robin into parts partitions,
// executed by at most workers goroutines.
//
// Phase 1 extracts every tweet's raw features into the share's vectors,
// resolves its label, and accumulates one statistics delta per partition;
// the deltas are folded, in partition order, into the share's local delta.
// Phase 2 normalizes (into one vector per partition) against base plus that
// local delta, predicts with snap, which the partitions share and nothing
// compiles until they finish, and accumulates the labeled instances into
// one training accumulator per partition of model. Neither base nor model
// is written, and the output depends only on the arguments — never on
// which node or how many workers ran it — which is what makes failover
// reassignment exact and the engines interchangeable.
func computeShare(extractor *feature.Extractor, base *norm.FeatureStats, mode norm.Mode, scheme core.ClassScheme,
	model stream.Model, snap *stream.Compiled, tweets []twitterdata.Tweet, parts, workers int) shareOutput {
	parts = min(max(parts, 1), len(tweets))

	raws := make([]feature.Vec, len(tweets))
	labels := make([]int, len(tweets))
	deltas := make([]*norm.FeatureStats, parts)
	runParts(parts, workers, func(part int) {
		delta := norm.NewFeatureStats(base.Dim())
		for idx := part; idx < len(tweets); idx += parts {
			tw := &tweets[idx]
			extractor.ExtractInto(raws[idx][:], tw)
			delta.Observe(raws[idx][:])
			labels[idx] = ml.Unlabeled
			if tw.IsLabeled() {
				labels[idx] = scheme.LabelIndex(tw.Label)
			}
		}
		deltas[part] = delta
	})
	out := shareOutput{stats: norm.NewFeatureStats(base.Dim())}
	for _, d := range deltas {
		out.stats.Merge(d)
	}

	normalizer := &norm.Normalizer{Mode: mode, Stats: base.Clone()}
	normalizer.Stats.Merge(out.stats)
	out.accs = make([]ml.Accumulator, parts)
	out.classified = make([]classifiedRec, len(tweets))
	runParts(parts, workers, func(part int) {
		acc := model.NewAccumulator()
		votes := make(ml.Prediction, snap.NumClasses())
		scratch := make([]float64, snap.ScratchLen())
		x := make([]float64, base.Dim()) // accumulators do not retain X
		for idx := part; idx < len(tweets); idx += parts {
			x = normalizer.Normalize(raws[idx][:], x)
			snap.PredictInto(votes, scratch, x)
			if labels[idx] >= 0 {
				acc.Observe(ml.Instance{
					X: x, Label: labels[idx], Weight: 1,
					ID: tweets[idx].IDStr, Day: tweets[idx].Day,
				})
			}
			out.classified[idx] = classifiedRec{
				Idx: idx, Label: labels[idx], Pred: votes.ArgMax(), Conf: votes.Confidence(),
			}
		}
		out.accs[part] = acc
	})
	return out
}

// runParts calls fn(0) … fn(parts-1) on at most workers goroutines, each
// pulling the next partition index, and returns when all have finished.
func runParts(parts, workers int, fn func(part int)) {
	workers = min(workers, parts)
	if workers <= 1 {
		for part := 0; part < parts; part++ {
			fn(part)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for part := int(next.Add(1)) - 1; part < parts; part = int(next.Add(1)) - 1 {
				fn(part)
			}
		}()
	}
	wg.Wait()
}

// mergeBatch is the driver step that ends every micro-batch: collect the
// shares' statistics deltas and accumulators, both in share order
// (deterministic whichever node served which share), and hand them with
// the classified batch to AbsorbBatch, which folds them into the
// pipeline's normalizer and global model and runs the effects section.
func mergeBatch(p *core.Pipeline, batch []twitterdata.Tweet, shares []shareOutput) {
	deltas := make([]*norm.FeatureStats, 0, len(shares))
	var accs []ml.Accumulator
	outcomes := make([]core.Outcome, len(batch))
	for _, s := range shares {
		deltas = append(deltas, s.stats)
		accs = append(accs, s.accs...)
		for _, c := range s.classified {
			outcomes[s.lo+c.Idx] = core.Outcome{Label: c.Label, Pred: c.Pred, Conf: c.Conf}
		}
	}
	p.AbsorbBatch(deltas, accs, batch, outcomes)
}

// nextBatch reads up to n tweets from src into buf's storage (a fresh
// slice when buf is too small — pass nil while an earlier batch is still in
// use). A result shorter than n means the source is exhausted.
func nextBatch(src Source, buf []twitterdata.Tweet, n int) []twitterdata.Tweet {
	if cap(buf) < n {
		buf = make([]twitterdata.Tweet, 0, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		t, ok := src.Next()
		if !ok {
			break
		}
		buf = append(buf, t)
	}
	return buf
}
