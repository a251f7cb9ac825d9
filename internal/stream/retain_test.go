package stream

import (
	"bytes"
	"math"
	"testing"

	"redhanded/internal/ml"
)

// TestModelsDoNotRetainX pins the contract core.Pipeline's result arenas
// rest on: neither a model's Train nor an accumulator's Observe keeps the
// instance's X past the call. Twin models see the same stream; one twin's X
// lives in a single buffer that is overwritten with NaN after every call.
// Anything retained would be read as NaN later, so the twins' serialized
// states would differ.
func TestModelsDoNotRetainX(t *testing.T) {
	const classes, dim = 3, 6
	data := gaussianStream(3000, classes, dim, 1.5, 41)
	for _, tc := range []struct {
		name string
		make func() RemoteTrainable
	}{
		{"HT", func() RemoteTrainable {
			return NewHoeffdingTree(HTConfig{NumClasses: classes, NumFeatures: dim, GracePeriod: 50})
		}},
		{"ARF", func() RemoteTrainable {
			return NewAdaptiveRandomForest(ARFConfig{NumClasses: classes, NumFeatures: dim, EnsembleSize: 4, Seed: 5})
		}},
		{"SLR", func() RemoteTrainable {
			return NewSLR(SLRConfig{NumClasses: classes, NumFeatures: dim})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, poisoned := tc.make(), tc.make()
			buf := make([]float64, dim)
			// aliased hands in's features to the poisoned twin through buf.
			aliased := func(in ml.Instance) ml.Instance {
				copy(buf, in.X)
				in.X = buf
				return in
			}
			poison := func() {
				for i := range buf {
					buf[i] = math.NaN()
				}
			}
			half := len(data) / 2
			for _, in := range data[:half] {
				clean.Train(in)
				poisoned.Train(aliased(in))
				poison()
			}
			// Accumulator rounds of 100 instances touch several leaves each.
			for start := half; start < len(data); start += 100 {
				ca, pa := clean.NewAccumulator(), poisoned.NewAccumulator()
				for _, in := range data[start:min(start+100, len(data))] {
					ca.Observe(in)
					pa.Observe(aliased(in))
					poison()
				}
				clean.ApplyAccumulators([]ml.Accumulator{ca})
				poisoned.ApplyAccumulators([]ml.Accumulator{pa})
			}
			want, err := clean.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := poisoned.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s retains X: the poisoned twin serializes to %d bytes, the clean one to %d", tc.name, len(got), len(want))
			}
			if untrained, err := tc.make().MarshalBinary(); err != nil || bytes.Equal(untrained, want) {
				t.Fatalf("%s never trained (%v)", tc.name, err)
			}
		})
	}
}
