// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs its experiment at a reduced scale so the whole
// suite completes in minutes; `cmd/benchrunner -scale 1` runs them at
// paper scale.
package redhanded_test

import (
	"io"
	"testing"

	"redhanded"
	"redhanded/internal/experiments"
)

// benchConfig returns the reduced-scale experiment configuration used by
// the benchmark suite.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.05
	cfg.TweetCounts = []int64{10000}
	cfg.ClusterExecutors = 3
	cfg.ClusterWorkers = 4
	return cfg
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFeaturePathProcess measures the full per-tweet serving hot
// path — extract (single-pass fast path), normalize, predict, train/alert
// — end to end through the sequential pipeline.
func BenchmarkFeaturePathProcess(b *testing.B) {
	cfg := redhanded.DefaultAggressionConfig()
	cfg.NormalCount, cfg.AbusiveCount, cfg.HatefulCount = 1300, 500, 200
	tweets := redhanded.GenerateAggression(cfg)
	opts := redhanded.DefaultOptions()
	opts.SampleStep = 0
	p := redhanded.NewPipeline(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process(&tweets[i%len(tweets)])
	}
}

// BenchmarkTable1GridSearch regenerates Table I (hyperparameter tuning).
func BenchmarkTable1GridSearch(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2KeyMetrics regenerates Table II (accuracy/precision/
// recall/F1 for HT, ARF, SLR on the 3- and 2-class problems).
func BenchmarkTable2KeyMetrics(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig4FeaturePDFs regenerates Fig. 4 (per-class feature
// distributions).
func BenchmarkFig4FeaturePDFs(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5GiniImportance regenerates Fig. 5 (feature importances).
func BenchmarkFig5GiniImportance(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Preprocessing regenerates Fig. 6 (preprocessing ON/OFF).
func BenchmarkFig6Preprocessing(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7NormalizationHT regenerates Fig. 7 (normalization, HT).
func BenchmarkFig7NormalizationHT(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8NormalizationSLR regenerates Fig. 8 (normalization, SLR).
func BenchmarkFig8NormalizationSLR(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9AdaptiveBoW regenerates Fig. 9 (adaptive BoW ON/OFF).
func BenchmarkFig9AdaptiveBoW(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10BoWGrowth regenerates Fig. 10 (BoW size over the stream).
func BenchmarkFig10BoWGrowth(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Streaming3Class regenerates Fig. 11 (HT/ARF/SLR, c=3).
func BenchmarkFig11Streaming3Class(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12Streaming2Class regenerates Fig. 12 (HT/ARF/SLR, c=2).
func BenchmarkFig12Streaming2Class(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13StreamVsBatch3 regenerates Fig. 13 (HT vs DT, c=3).
func BenchmarkFig13StreamVsBatch3(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14StreamVsBatch2 regenerates Fig. 14 (HT vs DT, c=2).
func BenchmarkFig14StreamVsBatch2(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15ExecutionTime regenerates Fig. 15 (execution time of MOA,
// SparkSingle, SparkLocal, SparkCluster).
func BenchmarkFig15ExecutionTime(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16Throughput regenerates Fig. 16 (throughput per system).
func BenchmarkFig16Throughput(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17RelatedBehaviors regenerates Fig. 17 (sarcasm and
// racism/sexism detection).
func BenchmarkFig17RelatedBehaviors(b *testing.B) { benchExperiment(b, "fig17") }
