package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"redhanded/internal/ml"
)

func TestConfusionBasics(t *testing.T) {
	m := NewConfusionMatrix(2)
	// 8 TP(0), 2 confused 0->1, 1 confused 1->0, 9 TP(1)
	for i := 0; i < 8; i++ {
		m.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		m.Add(0, 1)
	}
	m.Add(1, 0)
	for i := 0; i < 9; i++ {
		m.Add(1, 1)
	}
	if m.Total() != 20 {
		t.Fatalf("total = %d", m.Total())
	}
	if acc := m.Accuracy(); math.Abs(acc-0.85) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.85", acc)
	}
	// class 0: precision 8/9, recall 8/10
	if p := m.Precision(0); math.Abs(p-8.0/9) > 1e-12 {
		t.Fatalf("precision(0) = %v", p)
	}
	if r := m.Recall(0); math.Abs(r-0.8) > 1e-12 {
		t.Fatalf("recall(0) = %v", r)
	}
	f1 := m.F1(0)
	want := 2 * (8.0 / 9) * 0.8 / ((8.0 / 9) + 0.8)
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("f1(0) = %v, want %v", f1, want)
	}
}

func TestConfusionEmptyClassMetrics(t *testing.T) {
	m := NewConfusionMatrix(3)
	m.Add(0, 0)
	if m.Precision(2) != 0 || m.Recall(2) != 0 || m.F1(2) != 0 {
		t.Fatalf("metrics of absent class should be 0")
	}
}

func TestWeightedRecallEqualsAccuracy(t *testing.T) {
	f := func(pairsRaw []uint8) bool {
		m := NewConfusionMatrix(3)
		for _, p := range pairsRaw {
			m.Add(int(p)%3, int(p/3)%3)
		}
		if m.Total() == 0 {
			return true
		}
		return math.Abs(m.WeightedRecall()-m.Accuracy()) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricBoundsProperty(t *testing.T) {
	f := func(pairsRaw []uint8) bool {
		m := NewConfusionMatrix(3)
		for _, p := range pairsRaw {
			m.Add(int(p)%3, int(p/3)%3)
		}
		vals := []float64{
			m.Accuracy(), m.WeightedPrecision(), m.WeightedRecall(),
			m.WeightedF1(), m.MacroF1(),
		}
		for c := 0; c < 3; c++ {
			vals = append(vals, m.Precision(c), m.Recall(c), m.F1(c))
		}
		for _, v := range vals {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionMergePreservesCounts(t *testing.T) {
	a := NewConfusionMatrix(2)
	b := NewConfusionMatrix(2)
	a.Add(0, 0)
	a.Add(1, 0)
	b.Add(1, 1)
	a.Merge(b)
	if a.Total() != 3 || a.Count(1, 1) != 1 || a.Count(1, 0) != 1 {
		t.Fatalf("merge wrong: %v", a)
	}
	// Shape mismatch is ignored.
	a.Merge(NewConfusionMatrix(3))
	if a.Total() != 3 {
		t.Fatalf("mismatched merge altered counts")
	}
}

func TestConfusionIgnoresOutOfRange(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Add(-1, 0)
	m.Add(0, 5)
	if m.Total() != 0 {
		t.Fatalf("out-of-range pairs recorded")
	}
}

func TestConfusionResetAndClone(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Add(0, 0)
	cp := m.Clone()
	m.Reset()
	if m.Total() != 0 {
		t.Fatalf("reset failed")
	}
	if cp.Total() != 1 {
		t.Fatalf("clone affected by reset")
	}
}

func TestConfusionPanicsOnTinyK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("k=1 did not panic")
		}
	}()
	NewConfusionMatrix(1)
}

func TestConfusionString(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Add(0, 1)
	if !strings.Contains(m.String(), "2 classes") {
		t.Fatalf("String() lacks header: %q", m.String())
	}
}

func TestSummaryReport(t *testing.T) {
	m := NewConfusionMatrix(2)
	for i := 0; i < 90; i++ {
		m.Add(0, 0)
	}
	for i := 0; i < 10; i++ {
		m.Add(1, 1)
	}
	r := m.Summary()
	if r.Accuracy != 1 || r.F1 != 1 || r.Instances != 100 {
		t.Fatalf("perfect classifier summary wrong: %+v", r)
	}
}

func TestKappa(t *testing.T) {
	// Perfect agreement: kappa 1.
	m := NewConfusionMatrix(2)
	m.AddN(0, 0, 50)
	m.AddN(1, 1, 50)
	if k := m.Kappa(); math.Abs(k-1) > 1e-12 {
		t.Fatalf("perfect kappa = %v", k)
	}
	// Majority guessing on a 90/10 imbalance: high accuracy, kappa 0.
	m = NewConfusionMatrix(2)
	m.AddN(0, 0, 90)
	m.AddN(1, 0, 10)
	if acc := m.Accuracy(); acc != 0.9 {
		t.Fatalf("setup wrong: acc %v", acc)
	}
	if k := m.Kappa(); math.Abs(k) > 1e-12 {
		t.Fatalf("majority-guess kappa = %v, want 0", k)
	}
	// Empty matrix.
	if k := NewConfusionMatrix(2).Kappa(); k != 0 {
		t.Fatalf("empty kappa = %v", k)
	}
}

func TestAddN(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.AddN(0, 1, 5)
	m.AddN(0, 1, 0)  // no-op
	m.AddN(0, 1, -3) // no-op
	m.AddN(5, 0, 2)  // out of range
	if m.Total() != 5 || m.Count(0, 1) != 5 {
		t.Fatalf("AddN wrong: total %d", m.Total())
	}
}

func TestPrequentialCurve(t *testing.T) {
	p := NewPrequential(2, 10)
	rng := ml.NewRNG(1)
	for i := 0; i < 100; i++ {
		c := rng.Intn(2)
		p.Record(c, c) // always correct
	}
	curve := p.Curve()
	if len(curve) != 10 {
		t.Fatalf("curve has %d points, want 10", len(curve))
	}
	for _, pt := range curve {
		if pt.Value != 1 {
			t.Fatalf("perfect predictions should give F1=1 at %d, got %v", pt.Instances, pt.Value)
		}
	}
	if curve[9].Instances != 100 {
		t.Fatalf("last point at %d, want 100", curve[9].Instances)
	}
}

func TestPrequentialDisabledCurve(t *testing.T) {
	p := NewPrequential(2, 0)
	p.Record(0, 0)
	if len(p.Curve()) != 0 {
		t.Fatalf("sampleStep=0 should collect no curve")
	}
}

func TestPrequentialCustomMetric(t *testing.T) {
	p := NewPrequential(2, 1)
	p.SetMetric((*ConfusionMatrix).Accuracy)
	p.Record(0, 1)
	p.Record(0, 0)
	curve := p.Curve()
	if curve[0].Value != 0 || curve[1].Value != 0.5 {
		t.Fatalf("accuracy curve wrong: %+v", curve)
	}
}
