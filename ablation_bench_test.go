// Ablation benchmarks for the design choices DESIGN.md calls out: the
// distributed statistics-merge training strategy, leaf prediction modes,
// normalization modes, and the adaptive bag-of-words.
package redhanded_test

import (
	"fmt"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// ablationData caches a labeled dataset for the ablation benchmarks.
var ablationData = twitterdata.GenerateAggression(twitterdata.AggressionConfig{
	Seed: 9, Days: 10, NormalCount: 4000, AbusiveCount: 2000, HatefulCount: 400,
})

// ablationInstances caches extracted features for pure-model benchmarks.
var ablationInstances = func() []ml.Instance {
	ext := feature.NewExtractor(feature.DefaultConfig())
	out := make([]ml.Instance, 0, len(ablationData))
	for i := range ablationData {
		tw := &ablationData[i]
		out = append(out, ml.NewInstance(ext.Extract(tw), core.ThreeClass.LabelIndex(tw.Label)))
	}
	return out
}()

// BenchmarkAblationMergeStrategy compares sequential per-instance HT
// training against the distributed accumulate-and-merge path the engines
// use, including the resulting model quality.
func BenchmarkAblationMergeStrategy(b *testing.B) {
	newHT := func() *stream.HoeffdingTree {
		return stream.NewHoeffdingTree(stream.HTConfig{NumClasses: 3, NumFeatures: feature.NumFeatures})
	}
	holdout := ablationInstances[:2000]
	train := ablationInstances[2000:]
	accuracy := func(m ml.Classifier) float64 {
		correct := 0
		for _, in := range holdout {
			if m.Predict(in.X).ArgMax() == in.Label {
				correct++
			}
		}
		return float64(correct) / float64(len(holdout))
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ht := newHT()
			for _, in := range train {
				ht.Train(in)
			}
			b.ReportMetric(accuracy(ht), "holdout-acc")
		}
	})
	for _, tasks := range []int{2, 8} {
		b.Run(fmt.Sprintf("merge-%dtasks", tasks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ht := newHT()
				for start := 0; start < len(train); start += 1000 {
					end := start + 1000
					if end > len(train) {
						end = len(train)
					}
					accs := make([]ml.Accumulator, tasks)
					for t := range accs {
						accs[t] = ht.NewAccumulator()
					}
					for j, in := range train[start:end] {
						accs[j%tasks].Observe(in)
					}
					ht.ApplyAccumulators(accs)
				}
				b.ReportMetric(accuracy(ht), "holdout-acc")
			}
		})
	}
}

// BenchmarkAblationLeafPrediction compares the HT leaf predictors.
func BenchmarkAblationLeafPrediction(b *testing.B) {
	modes := map[string]stream.LeafPrediction{
		"majority-class": stream.MajorityClass,
		"naive-bayes":    stream.NaiveBayes,
		"nb-adaptive":    stream.NaiveBayesAdaptive,
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ht := stream.NewHoeffdingTree(stream.HTConfig{
					NumClasses: 3, NumFeatures: feature.NumFeatures, LeafPrediction: mode,
				})
				correct := 0
				for _, in := range ablationInstances {
					if ht.Predict(in.X).ArgMax() == in.Label {
						correct++
					}
					ht.Train(in)
				}
				b.ReportMetric(float64(correct)/float64(len(ablationInstances)), "preq-acc")
			}
		})
	}
}

// BenchmarkAblationNormalization compares the pipeline under the four
// normalization modes (the Fig. 7/8 design space).
func BenchmarkAblationNormalization(b *testing.B) {
	for _, mode := range []norm.Mode{norm.None, norm.MinMax, norm.MinMaxRobust, norm.ZScore} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Normalization = mode
				opts.SampleStep = 0
				p := core.NewPipeline(opts)
				p.ProcessAll(ablationData)
				b.ReportMetric(p.Summary().F1, "F1")
			}
		})
	}
}

// BenchmarkAblationAdaptiveBoW compares frozen vs adaptive BoW end to end.
func BenchmarkAblationAdaptiveBoW(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		b.Run(fmt.Sprintf("adaptive=%v", adaptive), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.AdaptiveBoW = adaptive
				opts.SampleStep = 0
				p := core.NewPipeline(opts)
				p.ProcessAll(ablationData)
				b.ReportMetric(p.Summary().F1, "F1")
			}
		})
	}
}
