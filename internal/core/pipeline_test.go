package core

import (
	"strings"
	"testing"
	"time"

	"redhanded/internal/norm"
	"redhanded/internal/twitterdata"
)

// smallDataset returns a reduced aggression dataset for fast tests.
func smallDataset(seed uint64, n, a, h int) []twitterdata.Tweet {
	return twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: seed, Days: 10, NormalCount: n, AbusiveCount: a, HatefulCount: h,
	})
}

func TestParseOptionsRoundTrip(t *testing.T) {
	for _, k := range []ModelKind{ModelHT, ModelARF, ModelSLR} {
		for _, in := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseModelKind(in); err != nil || got != k {
				t.Errorf("ParseModelKind(%q) = %v, %v; want %v", in, got, err, k)
			}
		}
	}
	for in, want := range map[string]ClassScheme{"2": TwoClass, "3": ThreeClass, TwoClass.String(): TwoClass, ThreeClass.String(): ThreeClass} {
		if got, err := ParseScheme(in); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseModelKind("xgb"); err == nil {
		t.Error("ParseModelKind accepted xgb")
	}
	for _, bad := range []string{"4", "", "c=", "three"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme accepted %q", bad)
		}
	}
}

func TestClassSchemes(t *testing.T) {
	if ThreeClass.NumClasses() != 3 || TwoClass.NumClasses() != 2 {
		t.Fatalf("class counts wrong")
	}
	if ThreeClass.LabelIndex(twitterdata.LabelHateful) != 2 {
		t.Fatalf("3-class hateful index wrong")
	}
	if TwoClass.LabelIndex(twitterdata.LabelHateful) != 1 {
		t.Fatalf("2-class hateful should merge into aggressive")
	}
	if TwoClass.LabelIndex(twitterdata.LabelAbusive) != 1 {
		t.Fatalf("2-class abusive index wrong")
	}
	if ThreeClass.LabelIndex("spam") != -1 {
		t.Fatalf("unknown label should map to -1")
	}
	if ThreeClass.String() != "c=3" || TwoClass.String() != "c=2" {
		t.Fatalf("scheme strings wrong")
	}
}

func TestModelKindString(t *testing.T) {
	if ModelHT.String() != "HT" || ModelARF.String() != "ARF" || ModelSLR.String() != "SLR" {
		t.Fatalf("model names wrong")
	}
}

func TestPipelineEndToEnd2Class(t *testing.T) {
	opts := DefaultOptions()
	opts.Scheme = TwoClass
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(1, 9000, 4500, 800))
	r := p.Summary()
	if r.F1 < 0.85 {
		t.Fatalf("2-class pipeline F1 = %v, want >= 0.85 (paper: ~0.91)", r.F1)
	}
	if r.Instances != 14300 {
		t.Fatalf("evaluated %d instances, want 14300", r.Instances)
	}
}

func TestPipelineEndToEnd3Class(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(smallDataset(2, 9000, 4500, 800))
	r := p.Summary()
	if r.F1 < 0.8 {
		t.Fatalf("3-class pipeline F1 = %v, want >= 0.8 (paper: ~0.87)", r.F1)
	}
}

func TestPipelineUnlabeledTraffic(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	// Train on some labeled data first.
	p.ProcessAll(smallDataset(3, 2000, 1000, 200))
	trained := p.Summary().Instances

	src := twitterdata.NewUnlabeledSource(4, 10)
	for i := 0; i < 1000; i++ {
		tw := src.Next()
		res := p.Process(&tw)
		if res.Tested {
			t.Fatalf("unlabeled tweet entered evaluation")
		}
	}
	if p.Summary().Instances != trained {
		t.Fatalf("unlabeled traffic changed evaluation counts")
	}
	dist := p.PredictedDistribution()
	sum := 0.0
	for _, v := range dist {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("predicted distribution does not sum to 1: %v", dist)
	}
	if dist[0] < 0.3 {
		t.Fatalf("normal share suspiciously low: %v", dist)
	}
}

func TestPipelineRaisesAlerts(t *testing.T) {
	opts := DefaultOptions()
	opts.Scheme = TwoClass
	p := NewPipeline(opts)
	var alerts []Alert
	p.Alerter().Subscribe(AlertSinkFunc(func(a Alert) { alerts = append(alerts, a) }))
	p.ProcessAll(smallDataset(5, 4000, 2000, 400))
	if len(alerts) == 0 {
		t.Fatalf("no alerts raised over aggressive traffic")
	}
	if p.Alerter().Raised() != int64(len(alerts)) {
		t.Fatalf("alert count mismatch: %d vs %d", p.Alerter().Raised(), len(alerts))
	}
	for _, a := range alerts[:10] {
		if a.Confidence < opts.AlertThreshold {
			t.Fatalf("alert below confidence threshold: %+v", a)
		}
		if a.Label == "normal" {
			t.Fatalf("alert raised for normal prediction")
		}
	}
}

func TestPipelineBoWCurveGrows(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleStep = 500
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(6, 5000, 2500, 500))
	curve := p.BoWSizeCurve()
	if len(curve) == 0 {
		t.Fatalf("no BoW size curve collected")
	}
	first, last := curve[0].Value, curve[len(curve)-1].Value
	if last <= first {
		t.Fatalf("adaptive BoW did not grow: %v -> %v", first, last)
	}
}

func TestPipelineFrozenBoWStaysAtSeed(t *testing.T) {
	opts := DefaultOptions()
	opts.AdaptiveBoW = false
	opts.SampleStep = 500
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(7, 2000, 1000, 200))
	curve := p.BoWSizeCurve()
	for _, pt := range curve {
		if pt.Value != 347 {
			t.Fatalf("frozen BoW size = %v, want 347", pt.Value)
		}
	}
}

func TestPipelineNormalizationMatters(t *testing.T) {
	// SLR without normalization collapses (Fig. 8: +42% F1 with n=ON).
	data := smallDataset(8, 6000, 3000, 500)
	mk := func(mode norm.Mode) float64 {
		opts := DefaultOptions()
		opts.Model = ModelSLR
		opts.Scheme = TwoClass
		opts.Normalization = mode
		p := NewPipeline(opts)
		p.ProcessAll(data)
		return p.Summary().F1
	}
	with := mk(norm.MinMaxRobust)
	without := mk(norm.None)
	if with <= without {
		t.Fatalf("normalization should help SLR: with=%v without=%v", with, without)
	}
	if with-without < 0.1 {
		t.Fatalf("normalization gap too small for SLR: with=%v without=%v", with, without)
	}
}

func TestPipelineDeterministicGivenSeed(t *testing.T) {
	data := smallDataset(9, 1000, 500, 100)
	run := func() float64 {
		p := NewPipeline(DefaultOptions())
		p.ProcessAll(data)
		return p.Summary().F1
	}
	if run() != run() {
		t.Fatalf("pipeline not deterministic")
	}
}

func TestLabelingLoopClosesAndImproves(t *testing.T) {
	// End-to-end §III-A loop: warm up -> classify unlabeled traffic ->
	// boosted sample -> annotate -> feed labels back.
	opts := DefaultOptions()
	opts.Scheme = TwoClass
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(51, 1500, 700, 150))
	trainedBefore := p.Summary().Instances

	// Unlabeled traffic with hidden ground truth.
	live := smallDataset(52, 1500, 700, 150)
	for i := range live {
		tw := live[i]
		tw.Label = ""
		p.Process(&tw)
	}
	sample := p.Sampler().Drain()
	if len(sample) == 0 {
		t.Fatalf("sampler returned nothing")
	}
	labeled := NewAnnotator(live, 0.05, 53).Annotate(sample)
	if len(labeled) != len(sample) {
		t.Fatalf("annotator dropped tweets: %d of %d", len(labeled), len(sample))
	}
	aggressive := 0
	for i := range labeled {
		if labeled[i].Label != "normal" {
			aggressive++
		}
		p.Process(&labeled[i])
	}
	// Boosting should have over-represented the aggressive minority.
	if share := float64(aggressive) / float64(len(labeled)); share < 0.4 {
		t.Fatalf("boosted sample aggressive share = %v, want >= 0.4", share)
	}
	if p.Summary().Instances <= trainedBefore {
		t.Fatalf("labeling round did not extend training")
	}
}

func TestPipelinePredictedDistributionAndProcessed(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(smallDataset(54, 500, 250, 50))
	if p.Processed() != 800 {
		t.Fatalf("processed = %d, want 800", p.Processed())
	}
	// No unlabeled traffic yet: distribution must be all zeros.
	for _, v := range p.PredictedDistribution() {
		if v != 0 {
			t.Fatalf("distribution nonzero without unlabeled traffic: %v", p.PredictedDistribution())
		}
	}
}

func TestPipelineAllThreeModels(t *testing.T) {
	data := smallDataset(10, 3000, 1500, 300)
	for _, kind := range []ModelKind{ModelHT, ModelARF, ModelSLR} {
		opts := DefaultOptions()
		opts.Model = kind
		opts.Scheme = TwoClass
		p := NewPipeline(opts)
		p.ProcessAll(data)
		if f1 := p.Summary().F1; f1 < 0.7 {
			t.Errorf("%v pipeline F1 = %v, want >= 0.7", kind, f1)
		}
	}
}

// TestLockWaitsCountOnlyContendedAcquires: a ProcessBatch that finds the
// pipeline's lock free leaves LockWaits at zero; one that has to wait for a
// reader holding it is counted once, with the time it blocked.
func TestLockWaitsCountOnlyContendedAcquires(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	tweets := smallDataset(3, 40, 20, 10)
	p.Process(&tweets[0])
	if c := p.Counts(); c.LockWaits != 0 || c.LockWaited != 0 {
		t.Fatalf("uncontended Process counted a wait: %d, %v", c.LockWaits, c.LockWaited)
	}
	// The processing goroutine may not reach the lock before the reader
	// releases it; hold it longer each round until one acquire has waited.
	for i, hold := 1, time.Millisecond; hold < 10*time.Second; i, hold = i+1, hold*2 {
		p.mu.Lock()
		done := make(chan struct{})
		go func() {
			p.Process(&tweets[i])
			close(done)
		}()
		time.Sleep(hold)
		p.mu.Unlock()
		<-done
		if c := p.Counts(); c.LockWaits > 0 {
			if c.LockWaits != 1 || c.LockWaited <= 0 {
				t.Fatalf("one blocked acquire recorded as %d waits, %v", c.LockWaits, c.LockWaited)
			}
			return
		}
	}
	t.Fatal("no ProcessBatch ever waited on the held lock")
}
