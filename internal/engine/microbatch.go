package engine

import (
	"fmt"
	"sync"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// MicroBatchConfig configures the Spark-Streaming-style engine.
type MicroBatchConfig struct {
	// BatchSize is the micro-batch length in tweets (default 1000).
	BatchSize int
	// Partitions is how many data partitions each batch is split into
	// (default = Workers).
	Partitions int
	// Workers is the parallel task slots (default 1 — SparkSingle).
	Workers int
	// EmulateBroadcast performs the per-batch global-model serialization
	// round trip that Spark's broadcast mechanism implies (default true;
	// models that do not support serialization skip it). This is the
	// micro-batch management overhead that makes SparkSingle ~7-17% slower
	// than MOA in Fig. 15.
	EmulateBroadcast bool
}

func (c MicroBatchConfig) withDefaults() MicroBatchConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers
	}
	return c
}

// SparkSingleConfig mimics single-threaded Spark execution.
func SparkSingleConfig() MicroBatchConfig {
	return MicroBatchConfig{BatchSize: 1000, Partitions: 1, Workers: 1, EmulateBroadcast: true}
}

// SparkLocalConfig mimics one multi-threaded Spark worker with the given
// core count (the paper's machines have 8 cores).
func SparkLocalConfig(cores int) MicroBatchConfig {
	return MicroBatchConfig{BatchSize: 1000, Partitions: cores, Workers: cores, EmulateBroadcast: true}
}

// classifiedRec is one prediction outcome produced by a task.
// It rides inside batchResponse, so it is wire-format-sensitive too.
//
//redvet:wire
type classifiedRec struct {
	Idx   int // position within the batch
	Label int
	Pred  int
	Conf  float64
}

// partitionResult is what one parallel task returns to the driver.
type partitionResult struct {
	part       int
	stats      *norm.FeatureStats
	acc        ml.Accumulator
	classified []classifiedRec
}

// RunMicroBatch executes the pipeline with micro-batch parallelism (Fig. 2
// of the paper). Each batch runs in two parallel phases: (1) feature
// extraction plus normalizer-statistics accumulation, merged at the
// driver; (2) normalization against the updated statistics, prediction
// with the batch-start global model, and training-delta accumulation. The
// driver then merges the model deltas and performs the sequential
// alerting/sampling/evaluation steps.
func RunMicroBatch(p *core.Pipeline, src Source, cfg MicroBatchConfig) (Stats, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	var stats Stats
	var lat latencyTracker
	driftDone := captureDrift(p)

	tasks := make(chan taskMsg, cfg.Workers)
	var workerWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for t := range tasks {
				t.fn()
				t.done.Done()
			}
		}()
	}
	defer func() {
		close(tasks)
		workerWG.Wait()
	}()

	batch := make([]twitterdata.Tweet, 0, cfg.BatchSize)
	// snapCache carries the compiled classify snapshot across batches so
	// each batch re-flattens only the member trees the previous batch's
	// training changed.
	var snapCache *stream.Compiled
	for {
		batch = batch[:0]
		for len(batch) < cfg.BatchSize {
			t, ok := src.Next()
			if !ok {
				break
			}
			batch = append(batch, t)
		}
		if len(batch) == 0 {
			break
		}
		batchStart := time.Now()
		if err := runOneBatch(p, batch, cfg, tasks, &snapCache); err != nil {
			return stats, err
		}
		lat.add(time.Since(batchStart))
		stats.Processed += int64(len(batch))
		tweetsProcessedTotal.Add(int64(len(batch)))
		stats.Batches++
		if len(batch) < cfg.BatchSize {
			break
		}
	}
	stats.Duration = time.Since(start)
	lat.fill(&stats)
	driftDone(&stats)
	captureUsers(p, &stats)
	return stats, nil
}

// taskMsg is one unit of work dispatched to the shared worker pool.
type taskMsg struct {
	fn   func()
	done *sync.WaitGroup
}

func runOneBatch(p *core.Pipeline, batch []twitterdata.Tweet, cfg MicroBatchConfig, tasks chan taskMsg, snapCache **stream.Compiled) error {
	model := p.Model()

	// Emulated Spark broadcast: serialize the global model and restore it,
	// paying the real encode/decode cost without changing state.
	if cfg.EmulateBroadcast {
		if rm, ok := model.(stream.RemoteTrainable); ok {
			blob, err := rm.MarshalBinary()
			if err != nil {
				return fmt.Errorf("engine: broadcast marshal: %w", err)
			}
			if err := rm.UnmarshalBinary(blob); err != nil {
				return fmt.Errorf("engine: broadcast unmarshal: %w", err)
			}
		}
	}

	scheme := p.Options().Scheme
	extractor := p.Extractor()

	parts := cfg.Partitions
	if parts > len(batch) {
		parts = len(batch)
	}

	// Phase 1 (parallel): extract raw features into pooled vectors,
	// accumulate statistics. The vectors are released after phase 2.
	raws := make([]*feature.Vec, len(batch))
	labels := make([]int, len(batch))
	statsDeltas := make([]*norm.FeatureStats, parts)
	var wg sync.WaitGroup
	for part := 0; part < parts; part++ {
		part := part
		wg.Add(1)
		tasks <- taskMsg{done: &wg, fn: func() {
			delta := norm.NewFeatureStats(p.Normalizer().Stats.Dim())
			for idx := part; idx < len(batch); idx += parts {
				tw := &batch[idx]
				raws[idx] = feature.GetVec()
				extractor.ExtractInto(raws[idx][:], tw)
				delta.Observe(raws[idx][:])
				labels[idx] = ml.Unlabeled
				if tw.IsLabeled() {
					labels[idx] = scheme.LabelIndex(tw.Label)
				}
			}
			statsDeltas[part] = delta
		}}
	}
	wg.Wait()
	for _, delta := range statsDeltas {
		p.Normalizer().Stats.Merge(delta)
	}

	// Phase 2 (parallel): normalize with the updated statistics, predict
	// with the batch-start model, accumulate training deltas. Prediction
	// goes through the compiled form of the batch-start model: the
	// snapshot is immutable, so partition tasks share it without
	// coordination, and the cross-batch cache re-flattens only the member
	// trees the previous batch's merge changed. (Broadcast emulation
	// rebuilds every node, so with EmulateBroadcast on the recompile is
	// necessarily full — the real serialization cost being modeled.)
	csnap := model.CompileSnapshot(*snapCache)
	*snapCache = csnap
	snapshot := &norm.Normalizer{Mode: p.Normalizer().Mode, Stats: p.Normalizer().Stats.Clone()}
	results := make([]partitionResult, parts)
	for part := 0; part < parts; part++ {
		part := part
		wg.Add(1)
		tasks <- taskMsg{done: &wg, fn: func() {
			res := partitionResult{part: part, acc: model.NewAccumulator()}
			votes := make(ml.Prediction, csnap.NumClasses())
			scratch := make([]float64, csnap.ScratchLen())
			for idx := part; idx < len(batch); idx += parts {
				x := snapshot.Normalize(raws[idx][:], nil)
				csnap.PredictInto(votes, scratch, x)
				label := labels[idx]
				if label >= 0 {
					res.acc.Observe(ml.Instance{
						X: x, Label: label, Weight: 1,
						ID: batch[idx].IDStr, Day: batch[idx].Day,
					})
				}
				res.classified = append(res.classified, classifiedRec{
					Idx: idx, Label: label, Pred: votes.ArgMax(), Conf: votes.Confidence(),
				})
			}
			results[part] = res
		}}
	}
	wg.Wait()

	for _, v := range raws {
		feature.PutVec(v)
	}

	// Driver-side merge in deterministic partition order.
	accs := make([]ml.Accumulator, 0, parts)
	outcomes := make([]core.Outcome, len(batch))
	for _, res := range results {
		accs = append(accs, res.acc)
		for _, c := range res.classified {
			outcomes[c.Idx] = core.Outcome{Label: c.Label, Pred: c.Pred, Conf: c.Conf}
		}
	}
	model.ApplyAccumulators(accs)
	p.AbsorbBatch(batch, outcomes)
	return nil
}
