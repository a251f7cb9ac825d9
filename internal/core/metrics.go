package core

import "redhanded/internal/metrics"

// WriteTotals writes the families of the counts pipelines keep — alerts
// raised, user-state verdicts, suspensions and evictions, waits on the
// pipeline lock, ARF drift signals — as totals over cs, one reading per
// pipeline. The serving layer writes them from the same readings as its
// per-shard families, so /metrics reads what /v1/stats and checkpoints
// read.
func WriteTotals(w *metrics.Writer, cs []Counts) {
	var t Counts
	var warnings, drifts, replacements int64
	for _, c := range cs {
		t.AlertsRaised += c.AlertsRaised
		t.SessionVerdicts += c.SessionVerdicts
		t.Escalations += c.Escalations
		t.Suspensions += c.Suspensions
		t.EvictionsCap += c.EvictionsCap
		t.EvictionsTTL += c.EvictionsTTL
		t.LockWaits += c.LockWaits
		t.LockWaited += c.LockWaited
		if d := c.Drift; d != nil {
			warnings += d.Warnings
			drifts += d.Drifts
			replacements += d.TreeReplacements
		}
	}
	w.Counter("redhanded_alerts_raised_total", "Alerts raised by the alerting step.").Sample(nil, float64(t.AlertsRaised))
	w.Counter("redhanded_userstate_session_verdicts_total", "Session verdicts emitted by the user-state layer.").Sample(nil, float64(t.SessionVerdicts))
	w.Counter("redhanded_userstate_escalations_total", "Escalation verdicts emitted by the user-state layer.").Sample(nil, float64(t.Escalations))
	w.Counter("redhanded_userstate_suspensions_total", "Users newly recommended for suspension.").Sample(nil, float64(t.Suspensions))
	w.Counter("redhanded_userstate_evictions_total", "User records evicted from the store by reason.").
		Sample(metrics.Labels{"reason": "cap"}, float64(t.EvictionsCap)).
		Sample(metrics.Labels{"reason": "ttl"}, float64(t.EvictionsTTL))
	w.Counter("redhanded_pipeline_lock_waits_total", "Processing calls that found their pipeline's lock held by a reader.").Sample(nil, float64(t.LockWaits))
	w.Counter("redhanded_pipeline_lock_wait_seconds_total", "Time processing calls spent blocked on a held pipeline lock.").Sample(nil, t.LockWaited.Seconds())
	w.Counter("redhanded_arf_warnings_total", "ARF member warnings (background trees started).").Sample(nil, float64(warnings))
	w.Counter("redhanded_arf_drifts_total", "ARF member drift-detector signals.").Sample(nil, float64(drifts))
	w.Counter("redhanded_arf_tree_replacements_total", "ARF member trees replaced after a detected drift.").Sample(nil, float64(replacements))
}

// RegisterMetrics registers on reg one collector that reads each of ps
// once per scrape (Counts) and writes WriteTotals of those readings.
// Registering again (a replacement pipeline on the same registry) hands
// the families to the new pipelines.
func RegisterMetrics(reg *metrics.Registry, ps ...*Pipeline) {
	reg.Collect("core.pipelines", func(w *metrics.Writer) {
		cs := make([]Counts, len(ps))
		for i, p := range ps {
			cs[i] = p.Counts()
		}
		WriteTotals(w, cs)
	})
}
