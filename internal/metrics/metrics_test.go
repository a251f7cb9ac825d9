package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	depth := 10
	r.Collect("queue", func(w *Writer) { w.Gauge("g", "help").Sample(nil, float64(depth)) })
	depth -= 3
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 7\n") {
		t.Fatalf("collected gauge not read at exposition time:\n%s", b.String())
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"shard": "0"})
	b := r.Counter("x_total", "help", Labels{"shard": "0"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("x_total", "help", Labels{"shard": "1"})
	if a == other {
		t.Fatal("different labels must return a different series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as histogram after counter should panic")
		}
	}()
	r.Histogram("m", "help", nil, nil)
}

// One collector writes several families, each with one # HELP and # TYPE
// ahead of all its series.
func TestCollectRendersFamilies(t *testing.T) {
	r := NewRegistry()
	r.Collect("log", func(w *Writer) {
		w.Counter("appends_total", "Appends.").Sample(Labels{"partition": "0"}, 40).Sample(Labels{"partition": "1"}, 2)
		w.Gauge("segments", "Segments.").Sample(nil, 3)
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP appends_total Appends.\n# TYPE appends_total counter\n" +
		`appends_total{partition="0"} 40` + "\n" + `appends_total{partition="1"} 2` + "\n" +
		"# HELP segments Segments.\n# TYPE segments gauge\nsegments 3\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCollectReregistrationReplaces(t *testing.T) {
	r := NewRegistry()
	r.Collect("owner", func(w *Writer) { w.Counter("owned_total", "help").Sample(nil, 1) })
	r.Collect("owner", func(w *Writer) { w.Counter("owned_total", "help").Sample(nil, 2) })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); strings.Count(out, "\nowned_total ") != 1 || !strings.Contains(out, "\nowned_total 2\n") {
		t.Fatalf("second registration should replace the first collector:\n%s", out)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.01, 0.1, 1}, nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in first bucket
	}
	h.Observe(5) // overflow bucket
	if h.Count() != 101 {
		t.Fatalf("count = %d, want 101", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5.5) > 1e-9 {
		t.Fatalf("sum = %g, want 5.5", got)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 0.01 {
		t.Fatalf("p50 = %g, want in (0, 0.01]", q)
	}
	if q := h.Quantile(1.0); q != 1 {
		t.Fatalf("p100 = %g, want overflow lower bound 1", q)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_total", "Tweets ingested.", nil).Add(7)
	r.Collect("owner", func(w *Writer) {
		w.Gauge("depth", "Queue depth.").Sample(Labels{"shard": "2"}, 3)
		w.Gauge("live", "Sampled.").Sample(nil, 1.5)
	})
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.5}, Labels{"shard": "0"})
	h.Observe(0.1)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ingest_total Tweets ingested.",
		"# TYPE ingest_total counter",
		"ingest_total 7",
		"# TYPE depth gauge",
		`depth{shard="2"} 3`,
		"live 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{shard="0",le="0.5"} 1`,
		`lat_seconds_bucket{shard="0",le="+Inf"} 2`,
		`lat_seconds_sum{shard="0"} 2.1`,
		`lat_seconds_count{shard="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorMayTouchRegistry(t *testing.T) {
	r := NewRegistry()
	r.Collect("self", func(w *Writer) {
		w.Gauge("self", "reads the registry").Sample(nil, float64(r.Counter("side_total", "help", nil).Value()))
	})
	done := make(chan error, 1)
	go func() {
		var b strings.Builder
		done <- r.WriteText(&b)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteText deadlocked on a registry-touching collector")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", nil, nil)
	c := r.Counter("n_total", "help", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count = %d / %d, want 8000", h.Count(), c.Value())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Fatalf("sum = %g, want 8.0", h.Sum())
	}
}

// TestConcurrentObserveWithReaders exercises the histogram under the access
// pattern tracing creates: hot-path writers observing while a metrics scrape
// (WriteText) and quantile readers (the /v1/trace stage table) run
// concurrently. Run under -race this proves the reader/writer paths are
// properly synchronized; the final totals prove no observation is lost to a
// racing snapshot.
func TestConcurrentObserveWithReaders(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{0.001, 0.01, 0.1}, nil)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var sb strings.Builder
			for {
				select {
				case <-stop:
					return
				default:
				}
				sb.Reset()
				if err := r.WriteText(&sb); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
				if q := h.Quantile(0.95); q < 0 {
					t.Errorf("Quantile(0.95) = %g during concurrent writes", q)
					return
				}
				_ = h.Count()
				_ = h.Sum()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if h.Count() != 16000 {
		t.Fatalf("count = %d, want 16000", h.Count())
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `lat_bucket{le="+Inf"} 16000`) {
		t.Fatalf("final exposition missing complete +Inf bucket:\n%s", sb.String())
	}
}
