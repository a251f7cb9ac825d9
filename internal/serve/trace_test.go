package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"redhanded/internal/obs"
)

// End-to-end slow-verdict capture: with a 1ns latency budget every tweet is
// artificially "slow", so GET /v1/trace/slow must return its full stage
// breakdown — the tentpole acceptance criterion.
func TestTraceSlowEndpointReturnsFullBreakdown(t *testing.T) {
	opts := testOptions()
	opts.Trace, opts.slowBudget = true, time.Nanosecond
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())

	tw := makeTweet("900100", "u-trace", "you are all garbage people", "abusive")
	blob, err := tw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d", resp.StatusCode)
	}
	waitProcessed(t, s, 1)

	// The span finishes on the shard goroutine just after the reply is
	// delivered; poll briefly for it to land in the slow ring.
	var slow obs.SlowReport
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/trace/slow")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&slow)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(slow.Traces) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !slow.Enabled || slow.SlowBudgetNanos != 1 {
		t.Fatalf("slow report header = %+v", slow)
	}
	if len(slow.Traces) == 0 {
		t.Fatal("no slow trace captured for an over-budget tweet")
	}
	tr := slow.Traces[0]
	if tr.ID != "900100" {
		t.Fatalf("slow trace ID = %q, want the tweet ID", tr.ID)
	}
	if !tr.Slow || tr.TotalNanos <= 0 {
		t.Fatalf("slow trace not marked slow: %+v", tr)
	}
	stages := map[string]int64{}
	for _, st := range tr.Stages {
		stages[st.Stage] = st.Nanos
	}
	for _, want := range []string{"queue", "extract", "classify", "observe", "verdict"} {
		if stages[want] <= 0 {
			t.Fatalf("slow trace missing stage %q: %v", want, stages)
		}
	}

	// The summary endpoint reports the same span in aggregate form.
	r, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var sum obs.Summary
	err = json.NewDecoder(r.Body).Decode(&sum)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Enabled || sum.Spans < 1 || sum.SlowSpans < 1 {
		t.Fatalf("trace summary = %+v", sum)
	}
	if len(sum.Stages) == 0 || len(sum.Recent) == 0 {
		t.Fatalf("trace summary missing stage stats or recent spans: %+v", sum)
	}
}

// With tracing disabled, the endpoints feature-detect rather than 404 and
// the span plumbing stays nil end to end.
func TestTraceEndpointsDisabled(t *testing.T) {
	s := NewServer(testOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())

	if s.Tracer() != nil {
		t.Fatal("tracer should be nil when Trace is false")
	}
	for _, path := range []string{"/v1/trace", "/v1/trace/slow"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Enabled bool `json:"enabled"`
		}
		err = json.NewDecoder(r.Body).Decode(&payload)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d err %v", path, r.StatusCode, err)
		}
		if payload.Enabled {
			t.Fatalf("%s reports enabled on an untraced server", path)
		}
	}
}

// Tracing survives the ingest path and SSE emit attribution: aggressive
// labeled tweets trigger alerts whose publish time lands in the emit stage
// without inflating the verdict stage.
func TestTraceIngestAndEmitAttribution(t *testing.T) {
	opts := testOptions()
	opts.Trace, opts.slowBudget = true, -1
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())

	var tweets []string
	for i := 0; i < 40; i++ {
		tw := makeTweet("910"+string(rune('0'+i%10))+"00", "u-emit", "I will hurt you", "abusive")
		blob, err := tw.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		tweets = append(tweets, string(blob))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(strings.Join(tweets, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, 40)

	deadline := time.Now().Add(5 * time.Second)
	for s.Tracer().Spans() < 40 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Tracer().Spans(); got < 40 {
		t.Fatalf("Spans = %d, want 40", got)
	}
	sum := s.Tracer().Snapshot(8)
	if len(sum.Recent) == 0 {
		t.Fatal("no recent spans after ingest")
	}
}
