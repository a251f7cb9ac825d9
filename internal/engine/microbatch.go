package engine

import (
	"fmt"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// MicroBatchConfig configures the Spark-Streaming-style engine.
type MicroBatchConfig struct {
	// BatchSize is the micro-batch length in tweets (default 1000).
	BatchSize int
	// Workers is the parallel task slots, and the number of data
	// partitions each batch is split into (default 1 — SparkSingle).
	Workers int
}

func (c MicroBatchConfig) withDefaults() MicroBatchConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 1000
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// SparkSingleConfig mimics single-threaded Spark execution.
func SparkSingleConfig() MicroBatchConfig {
	return MicroBatchConfig{BatchSize: 1000, Workers: 1}
}

// SparkLocalConfig mimics one multi-threaded Spark worker with the given
// core count (the paper's machines have 8 cores).
func SparkLocalConfig(cores int) MicroBatchConfig {
	return MicroBatchConfig{BatchSize: 1000, Workers: cores}
}

// RunMicroBatch executes the pipeline with micro-batch parallelism (Fig. 2
// of the paper): every batch is one share — the whole batch, computed by
// computeShare against the pipeline's own extractor, statistics and model —
// followed by the driver merge and the sequential alerting/sampling/
// evaluation steps (mergeBatch). Each batch predicts with a broadcast copy
// of the model: the live model is encoded and decoded into a fresh one, as
// an executor decodes it, and the copy's compiled form (a full flatten)
// classifies the batch. That round trip is the micro-batch management
// overhead that makes SparkSingle ~7-17% slower than MOA in Fig. 15. The
// live model is only read until mergeBatch, whose AbsorbBatch trains and
// compiles it under the pipeline's lock, so the pipeline's readers may run
// alongside.
func RunMicroBatch(p *core.Pipeline, src Source, cfg MicroBatchConfig) (Stats, error) {
	cfg = cfg.withDefaults()
	m := startRun(p)
	model := p.Model()
	kind, err := stream.ModelKindOf(model)
	if err != nil {
		return m.finish(), err
	}
	var batch []twitterdata.Tweet
	for {
		batch = nextBatch(src, batch, cfg.BatchSize)
		if len(batch) == 0 {
			break
		}
		batchStart := time.Now()
		blob, err := model.MarshalBinary()
		if err != nil {
			return m.finish(), fmt.Errorf("engine: broadcast marshal: %w", err)
		}
		broadcast, err := stream.DecodeModel(kind, blob)
		if err != nil {
			return m.finish(), fmt.Errorf("engine: broadcast unmarshal: %w", err)
		}
		share := computeShare(p.Extractor(), p.Normalizer().Stats, p.Normalizer().Mode, p.Options().Scheme,
			model, broadcast.CompileSnapshot(nil), batch, cfg.Workers, cfg.Workers)
		mergeBatch(p, batch, []shareOutput{share})
		m.batch(len(batch), batchStart)
		if len(batch) < cfg.BatchSize {
			break
		}
	}
	return m.finish(), nil
}
