package core

import (
	"redhanded/internal/metrics"
	"redhanded/internal/stream"
)

// RegisterMetrics exposes on reg the counts the pipelines keep — alerts
// raised, user-state verdicts, suspensions and evictions, waits on the
// pipeline lock, ARF drift signals — as totals over ps, sampled at scrape
// time through the pipelines' locked reads (Counts, DriftStats). The
// pipelines stay the only producers, so /metrics reads what /v1/stats and
// checkpoints read. Registering again (a replacement server on the same
// registry) hands every series to the new pipelines.
func RegisterMetrics(reg *metrics.Registry, ps ...*Pipeline) {
	sum := func(f func(*Pipeline) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, p := range ps {
				n += f(p)
			}
			return float64(n)
		}
	}
	counts := func(f func(Counts) int64) func() float64 {
		return sum(func(p *Pipeline) int64 { return f(p.Counts()) })
	}
	drift := func(f func(*stream.DriftStats) int64) func() float64 {
		return sum(func(p *Pipeline) int64 {
			if st := p.DriftStats(); st != nil {
				return f(st)
			}
			return 0
		})
	}
	reg.CounterFunc("redhanded_alerts_raised_total", "Alerts raised by the alerting step.", nil,
		counts(func(c Counts) int64 { return c.AlertsRaised }))
	reg.CounterFunc("redhanded_userstate_session_verdicts_total", "Session verdicts emitted by the user-state layer.", nil,
		counts(func(c Counts) int64 { return c.SessionVerdicts }))
	reg.CounterFunc("redhanded_userstate_escalations_total", "Escalation verdicts emitted by the user-state layer.", nil,
		counts(func(c Counts) int64 { return c.Escalations }))
	reg.CounterFunc("redhanded_userstate_suspensions_total", "Users newly recommended for suspension.", nil,
		counts(func(c Counts) int64 { return c.Suspensions }))
	const evicted = "User records evicted from the store by reason."
	reg.CounterFunc("redhanded_userstate_evictions_total", evicted, metrics.Labels{"reason": "cap"},
		counts(func(c Counts) int64 { return c.EvictionsCap }))
	reg.CounterFunc("redhanded_userstate_evictions_total", evicted, metrics.Labels{"reason": "ttl"},
		counts(func(c Counts) int64 { return c.EvictionsTTL }))
	reg.CounterFunc("redhanded_pipeline_lock_waits_total", "Processing calls that found their pipeline's lock held by a reader.", nil,
		counts(func(c Counts) int64 { return c.LockWaits }))
	waited := counts(func(c Counts) int64 { return int64(c.LockWaited) })
	reg.CounterFunc("redhanded_pipeline_lock_wait_seconds_total", "Time processing calls spent blocked on a held pipeline lock.", nil,
		func() float64 { return waited() / 1e9 })
	reg.CounterFunc("redhanded_arf_warnings_total", "ARF member warnings (background trees started).", nil,
		drift(func(st *stream.DriftStats) int64 { return st.Warnings }))
	reg.CounterFunc("redhanded_arf_drifts_total", "ARF member drift-detector signals.", nil,
		drift(func(st *stream.DriftStats) int64 { return st.Drifts }))
	reg.CounterFunc("redhanded_arf_tree_replacements_total", "ARF member trees replaced after a detected drift.", nil,
		drift(func(st *stream.DriftStats) int64 { return st.TreeReplacements }))
}
