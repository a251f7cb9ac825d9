package obs

import (
	"cmp"
	"encoding/json"
	"net/http"
	"slices"
	"time"
)

// StageNanos is one stage's share of a trace breakdown.
type StageNanos struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// Trace is the JSON form of one captured over-budget span.
type Trace struct {
	TraceID       uint64       `json:"trace_id"`
	ID            string       `json:"id"` // tweet ID, or "batch-N" for driver spans
	Shard         int          `json:"shard"`
	StartUnixNano int64        `json:"start_unix_nano"`
	TotalNanos    int64        `json:"total_nanos"`
	Stages        []StageNanos `json:"stages"`
}

// StageStats summarises one stage's latency distribution (quantiles come
// from the registry histograms, so they cover every span ever finished).
type StageStats struct {
	Stage      string `json:"stage"`
	Count      int64  `json:"count"`
	TotalNanos int64  `json:"total_nanos"`
	P50Nanos   int64  `json:"p50_nanos"`
	P95Nanos   int64  `json:"p95_nanos"`
	P99Nanos   int64  `json:"p99_nanos"`
}

// Summary is the GET /v1/trace payload: span counts and aggregate stage
// statistics.
type Summary struct {
	Enabled         bool         `json:"enabled"`
	Spans           int64        `json:"spans"`
	SlowSpans       int64        `json:"slow_spans"`
	SlowBudgetNanos int64        `json:"slow_budget_nanos"`
	Stages          []StageStats `json:"stages,omitempty"`
}

// SlowReport is the GET /v1/trace/slow payload.
type SlowReport struct {
	Enabled         bool    `json:"enabled"`
	SlowBudgetNanos int64   `json:"slow_budget_nanos"`
	SlowSpans       int64   `json:"slow_spans"`
	Traces          []Trace `json:"traces"`
}

// Snapshot assembles the trace summary, with per-stage quantiles from the
// histograms. Safe to call concurrently with tracing. A nil tracer reports
// Enabled=false.
func (t *Tracer) Snapshot() Summary {
	if t == nil {
		return Summary{}
	}
	sum := Summary{
		Enabled:         true,
		Spans:           t.spans.Load(),
		SlowSpans:       t.slowSpans.Load(),
		SlowBudgetNanos: int64(t.cfg.SlowBudget),
	}
	if t.totalHist != nil {
		for s := Stage(0); s < NumStages; s++ {
			h := t.stageHist[s]
			if h.Count() == 0 {
				continue
			}
			sum.Stages = append(sum.Stages, StageStats{
				Stage:      s.String(),
				Count:      h.Count(),
				TotalNanos: int64(h.Sum() * 1e9),
				P50Nanos:   int64(h.Quantile(0.50) * 1e9),
				P95Nanos:   int64(h.Quantile(0.95) * 1e9),
				P99Nanos:   int64(h.Quantile(0.99) * 1e9),
			})
		}
	}
	return sum
}

// SlowTraces returns the over-budget spans the shards' rings still hold,
// merged oldest first by trace ID. A nil tracer reports Enabled=false.
func (t *Tracer) SlowTraces() SlowReport {
	if t == nil {
		return SlowReport{}
	}
	rep := SlowReport{
		Enabled:         true,
		SlowBudgetNanos: int64(t.cfg.SlowBudget),
		SlowSpans:       t.slowSpans.Load(),
	}
	for i := range t.shards {
		rep.Traces = append(rep.Traces, t.shards[i].slow.snapshot()...)
	}
	slices.SortFunc(rep.Traces, func(a, b Trace) int { return cmp.Compare(a.TraceID, b.TraceID) })
	return rep
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// TraceHandler serves the trace summary as JSON (the /v1/trace endpoint).
// Works on a nil tracer (reports tracing disabled).
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, t.Snapshot())
	})
}

// SlowHandler serves the slow-verdict captures as JSON (/v1/trace/slow).
func SlowHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, t.SlowTraces())
	})
}

// DurString renders nanoseconds for human-facing tables (loadgen's
// per-stage breakdown).
func DurString(nanos int64) string { return time.Duration(nanos).Round(time.Microsecond).String() }
