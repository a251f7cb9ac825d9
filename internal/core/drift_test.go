package core

import (
	"testing"

	"redhanded/internal/eval"
	"redhanded/internal/twitterdata"
)

// TestARFRecoversFromConceptShiftHTDegrades exercises ADWIN end to end on
// the pipeline: a stream whose class-conditional distributions swap at a
// fixed offset (twitterdata's concept-shift mode). Fading prequential F1
// — the standard streaming health metric — must show the ARF detecting
// the drift, replacing member trees, and recovering close to its
// pre-shift level, while the plain Hoeffding tree, whose splits encode
// the dead concept, stays substantially worse.
func TestARFRecoversFromConceptShiftHTDegrades(t *testing.T) {
	cfg := twitterdata.AggressionConfig{
		Seed: 77, Days: 10,
		NormalCount: 7500, AbusiveCount: 3700, HatefulCount: 800,
		ShiftAt: 6000,
	}
	data := twitterdata.GenerateAggression(cfg)

	type outcome struct {
		pre, trough, end float64
		drifts           int64
	}
	run := func(opts Options) outcome {
		p := NewPipeline(opts)
		fading := eval.NewFadingPrequential(opts.Scheme.NumClasses(), 0.995)
		var o outcome
		o.trough = 1
		for i := range data {
			res := p.Process(&data[i])
			if res.Tested {
				fading.Record(res.Instance.Label, res.Predicted)
			}
			switch {
			case i == cfg.ShiftAt-1:
				o.pre = fading.WeightedF1()
			case i > cfg.ShiftAt && i%500 == 0:
				if f := fading.WeightedF1(); f < o.trough {
					o.trough = f
				}
			}
		}
		o.end = fading.WeightedF1()
		if d := p.Counts().Drift; d != nil {
			o.drifts = d.TreeReplacements
		}
		return o
	}

	htOpts := DefaultOptions()
	htOpts.Scheme = TwoClass
	htOpts.SampleStep = 0

	arfOpts := htOpts
	arfOpts.Model = ModelARF
	arfOpts.ARF.EnsembleSize = 5

	ht := run(htOpts)
	arf := run(arfOpts)
	t.Logf("HT : pre=%.3f trough=%.3f end=%.3f", ht.pre, ht.trough, ht.end)
	t.Logf("ARF: pre=%.3f trough=%.3f end=%.3f drifts=%d", arf.pre, arf.trough, arf.end, arf.drifts)

	if arf.pre < 0.7 || ht.pre < 0.7 {
		t.Fatalf("models never learned the first concept: HT %.3f, ARF %.3f", ht.pre, arf.pre)
	}
	// The ARF's dip is shallow precisely because ADWIN reacts within a few
	// hundred instances; require only that the shift registered at all.
	if arf.trough > arf.pre-0.03 {
		t.Errorf("shift did not dent ARF's fading F1 (pre %.3f, trough %.3f): no drift to recover from", arf.pre, arf.trough)
	}
	if ht.trough > 0.5 {
		t.Errorf("shift barely dented HT (trough %.3f): the drift stressor is too weak", ht.trough)
	}
	if arf.drifts == 0 {
		t.Error("ARF replaced no trees across an abrupt concept shift")
	}
	if arf.end < arf.pre-0.08 {
		t.Errorf("ARF did not recover: pre-shift F1 %.3f, end %.3f", arf.pre, arf.end)
	}
	if ht.end > arf.end-0.05 {
		t.Errorf("HT did not degrade relative to ARF after the shift: HT %.3f, ARF %.3f", ht.end, arf.end)
	}
}
