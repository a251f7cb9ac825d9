package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/engine"
	"redhanded/internal/obs"
	"redhanded/internal/twitterdata"
)

// writeSpans writes the traced pass's spans, once, when the pass ends.
func (e *env) writeSpans(w workload, rec *recorder) error {
	path := filepath.Join(e.root, outDir, "trace-"+w.name+".json")
	return writeJSON(path, spanFile{Workload: w.name, Seed: e.seed, Spans: rec.spans})
}

// depthPoller samples /v1/stats at 20 Hz while a phase runs: the deepest
// shard queue and the ingest log's lag, the two backlogs that grow before
// throughput stops growing.
type depthPoller struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	depths []float64
	lagMax int64
}

func pollDepths(srv *server) *depthPoller {
	p := &depthPoller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			st, err := srv.stats()
			if err != nil {
				continue // a missed sample; the phase itself reports a dead server
			}
			deepest := 0
			for _, sh := range st.PerShard {
				deepest = max(deepest, sh.QueueDepth)
			}
			p.depths = append(p.depths, float64(deepest))
			if st.IngestLog != nil {
				p.lagMax = max(p.lagMax, st.IngestLog.Lag)
			}
		}
	}()
	return p
}

func (p *depthPoller) finish() {
	close(p.stop)
	p.wg.Wait()
	sort.Float64s(p.depths)
}

// stageMetrics turns two /v1/trace snapshots and two /metrics scrapes, taken
// before and after the steady phase, into the serve.trace.* rows of that
// phase, and returns the tracer's own per-tweet processing cost: the time of
// every stage that runs inside Pipeline.Process (queue wait and SSE emit
// excluded — the in-process pipeline it is compared with has neither), summed
// and divided by spans.
func stageMetrics(before, after obs.Summary, promBefore, promAfter *promText, m map[string]float64) float64 {
	type totals struct{ nanos, count int64 }
	prev := make(map[string]totals)
	for _, st := range before.Stages {
		prev[st.Stage] = totals{st.TotalNanos, st.Count}
	}
	var inProcessNanos int64
	for _, st := range after.Stages {
		nanos, count := st.TotalNanos-prev[st.Stage].nanos, st.Count-prev[st.Stage].count
		if count <= 0 {
			continue
		}
		switch st.Stage {
		case "queue":
			const series = `redhanded_trace_stage_seconds_bucket{stage="queue"`
			m["serve.trace.queue_p50_us"] = 1e6 * quantileSince(promBefore, promAfter, series, 0.50)
			m["serve.trace.queue_p99_us"] = 1e6 * quantileSince(promBefore, promAfter, series, 0.99)
		case "cache", "extract", "classify", "observe", "verdict", "compile":
			m["serve.trace."+st.Stage+"_mean_us"] = float64(nanos) / float64(count) / 1e3
			inProcessNanos += nanos
		case "emit":
			m["serve.trace.emit_mean_us"] = float64(nanos) / float64(count) / 1e3
		}
	}
	spans := after.Spans - before.Spans
	if spans <= 0 {
		return 0
	}
	return float64(inProcessNanos) / float64(spans) / 1e3
}

// traceServing is the traced pass of a serving workload. T1 times the layers
// in-process on the workload's corpus; T2 runs the workload against a server
// started with -trace and reads /v1/trace, /v1/stats and /metrics; an
// untraced saturation leg in between is the base of the tracing overhead and
// of serve.unaccounted_us.
func (e *env) traceServing(w workload, replayTPS float64) (*result, error) {
	c, err := buildServingCorpus(e.seed, w.retweets, corpusLines)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	walDir, err := e.scratchDir("layer-wal")
	if err != nil {
		return nil, err
	}
	led, err := layerPass(c.lines, walDir, rec)
	if err != nil {
		return nil, err
	}
	m := led.metrics()
	m["ingestlog.replay_tps"] = replayTPS

	base, err := e.setUpWith(c, w)
	if err != nil {
		return nil, err
	}
	baseSat, err := base.load.saturate(e.phase(tracedBaseShare))
	base.close()
	if err != nil {
		return nil, fmt.Errorf("untraced saturation leg: %w", err)
	}
	baseTPS, baseCPU := baseSat.tps(), baseSat.cpuUS()

	r, err := e.setUpWith(c, w, "-trace")
	if err != nil {
		return nil, err
	}
	defer r.close()
	// Saturation first: both saturation legs then start from the state the
	// same warm-up left, so their difference is the tracer's cost.
	sat, err := r.load.saturate(e.phase(tracedSaturationShare))
	if err != nil {
		return nil, fmt.Errorf("traced saturation phase: %w", err)
	}
	traceBefore, err := r.srv.trace()
	if err != nil {
		return nil, err
	}
	promBefore, err := r.srv.metrics()
	if err != nil {
		return nil, err
	}
	poll := pollDepths(r.srv)
	steady, err := r.load.steady(w.steadyRate, e.phase(tracedSteadyShare))
	poll.finish()
	if err != nil {
		return nil, fmt.Errorf("traced steady phase: %w", err)
	}
	sum, err := r.srv.trace()
	if err != nil {
		return nil, err
	}
	if !sum.Enabled || sum.Spans <= traceBefore.Spans {
		return nil, fmt.Errorf("server started with -trace recorded no spans over the steady phase")
	}
	prom, err := r.srv.metrics()
	if err != nil {
		return nil, err
	}

	var rtts, accepts, lates []float64
	for i, q := range steady.requests {
		rec.add("serve.request", i, steady.start.Add(q.due+q.late), q.rtt)
		rtts = append(rtts, float64(q.rtt)/float64(time.Millisecond))
		accepts = append(accepts, float64(q.rtt)/float64(r.load.perReq)/1e3)
		lates = append(lates, float64(q.late)/float64(time.Millisecond))
	}
	sort.Float64s(lates)
	verdictMS := make([]float64, len(steady.verdicts))
	for i, v := range steady.verdicts {
		verdictMS[i] = float64(v.latency) / float64(time.Millisecond)
	}
	sort.Float64s(verdictMS)
	m["e2e.verdict_latency_p99_ms"] = percentile(verdictMS, 0.99)
	processed := float64(steady.processed())
	m["serve.accept_us"] = median(accepts)
	m["serve.request_p50_ms"] = median(rtts)
	m["serve.queue_depth_p50"] = percentile(poll.depths, 0.5)
	m["serve.queue_depth_max"] = percentile(poll.depths, 1)
	m["serve.drain_batch_mean"] = (prom.sums["redhanded_shard_drain_batch_sum"] - promBefore.sums["redhanded_shard_drain_batch_sum"]) /
		max(prom.sums["redhanded_shard_drain_batch_count"]-promBefore.sums["redhanded_shard_drain_batch_count"], 1)
	m["serve.rejected_share_sat"] = float64(sat.rejected) / float64(max(sat.accepted+sat.rejected, 1))
	m["serve.steady_cpu_us_per_tweet"] = steady.cpuS * 1e6 / processed
	m["serve.alerts_per_tweet"] = float64(steady.after.AlertsRaised-steady.before.AlertsRaised) / processed
	events := prom.sums["redhanded_alerts_streamed_total"] + prom.sums["redhanded_alerts_dropped_total"]
	m["serve.sse_dropped_share"] = prom.sums["redhanded_alerts_dropped_total"] / max(events, 1)
	m["serve.failed_share"] = float64(steady.failed(r.load.perReq)) / float64(steady.offered)
	lookups := steady.after.FeatCacheHits + steady.after.FeatCacheMisses - steady.before.FeatCacheHits - steady.before.FeatCacheMisses
	m["feature.cache_hit_ratio"] = float64(steady.after.FeatCacheHits-steady.before.FeatCacheHits) / float64(max(lookups, 1))
	m["stream.snapshot_rebuilds_per_ktweets"] = 1000 * float64(steady.after.SnapshotRebuilds-steady.before.SnapshotRebuilds) / processed
	m["userstate.active_users"] = float64(steady.after.ActiveUsers)
	m["userstate.evictions"] = float64(steady.after.UserEvictions)
	m["loadgen.late_p99_ms"] = percentile(lates, 0.99)
	m["loadgen.cpu_share"] = steady.genCPUS / (steady.elapsed.Seconds() * float64(runtime.NumCPU()))
	m["loadgen.host_steal_share"] = stealShare(steady.steal, steady.elapsed)

	// The ledger's books. What the server spends per tweet beyond the layers
	// timed in-process is HTTP, scanning, channel hand-off, SSE and GC.
	m["serve.unaccounted_us"] = baseCPU - (m["twitterdata.decode_us"] + m["core.process_us"])
	tracerUS := stageMetrics(traceBefore, sum, promBefore, prom, m)
	m["serve.trace_ledger_gap_pct"] = 100 * math.Abs(tracerUS-m["core.process_us"]) / m["core.process_us"]
	tracedTPS := sat.tps()
	m["obs.trace_overhead_pct"] = 100 * (baseTPS - tracedTPS) / baseTPS

	attempted := steady.offered + sat.offered + baseSat.offered
	perReq := int64(r.load.perReq)
	failed := steady.failed(r.load.perReq) + (sat.malformed + baseSat.malformed) + (sat.failedReqs+baseSat.failedReqs)*perReq
	var legNotes []string
	if w.extraLegs {
		r.close() // one server at a time on a small box; the deferred second close is harmless
		wal, err := e.walLeg(c, w, m)
		if err != nil {
			return nil, fmt.Errorf("write-ahead-log leg: %w", err)
		}
		talk, burst, err := e.classifyLeg(c, m)
		if err != nil {
			return nil, fmt.Errorf("synchronous-classify leg: %w", err)
		}
		attempted += wal.offered + talk.offered + burst.offered
		failed += wal.malformed + wal.failedReqs*perReq + talk.failed(1) + burst.malformed + burst.failedReqs
		legNotes = []string{
			fmt.Sprintf("write-ahead-log leg: saturation %.0f tweets/s at %.2f us/tweet with -log-dir -fsync interval (base: the untraced leg's %.0f and %.2f)",
				wal.tps(), wal.cpuUS(), baseTPS, baseCPU),
			fmt.Sprintf("synchronous-classify leg: one caller sees p50 %.3f ms, p90 %.3f ms over %d requests; %d callers reach %.0f requests/s at %.2f us of server CPU each, %.2f us of it outside decode and Process (firehose: %.2f)",
				m["serve.classify_p50_ms"], m["serve.classify_p90_ms"], len(talk.verdicts), classifySenders(), burst.tps(), burst.cpuUS(),
				m["serve.classify_unaccounted_us"], m["serve.unaccounted_us"]),
		}
	}
	if err := e.writeSpans(w, rec); err != nil {
		return nil, err
	}
	return &result{
		attempted: attempted,
		failed:    failed,
		metrics:   m,
		argv:      r.srv.argv,
		notes: append([]string{
			fmt.Sprintf("T1: %d blocks of %d tweets through every layer, labeled share %.3f, whole-pipeline cache hit ratio %.3f",
				layerBlocks, layerBlock, led.labeledShare, led.hitRatio),
			fmt.Sprintf("T2: untraced saturation %.0f tweets/s at %.2f us/tweet is the base; traced saturation %.0f tweets/s; tracer sums to %.2f us/tweet in Process against %.2f us measured in-process",
				baseTPS, baseCPU, tracedTPS, tracerUS, m["core.process_us"]),
			fmt.Sprintf("%d spans written to %s/trace-%s.json", len(rec.spans), outDir, w.name),
		}, legNotes...),
	}, nil
}

// classifyLeg is the issue's classify_sync workload as a leg of the traced
// pass: /v1/classify, one tweet per request, on the workload's corpus. First
// one caller in conversation with the server (the latency a caller sees),
// then classifySenders() callers back to back (what the path sustains).
// serve.classify_unaccounted_us is the per-request CPU outside decode and
// Process — HTTP, batch-of-one drain, reply channel — to be read against
// serve.unaccounted_us of the firehose path in the same pass.
func (e *env) classifyLeg(c *corpus, m map[string]float64) (talk, burst *phase, err error) {
	r, err := e.setUpWith(c, workload{name: "classify leg", kind: kindClassify, warmup: classifyWarmup})
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	if talk, err = r.load.steady(0, e.phase(tracedClassifyShare/2)); err != nil {
		return nil, nil, err
	}
	if burst, err = r.load.saturate(e.phase(tracedClassifyShare / 2)); err != nil {
		return nil, nil, err
	}
	lat := make([]float64, len(talk.verdicts))
	for i, v := range talk.verdicts {
		lat[i] = float64(v.latency) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	m["serve.classify_p50_ms"] = percentile(lat, 0.50)
	m["serve.classify_p90_ms"] = percentile(lat, 0.90)
	m["serve.classify_tps"] = burst.tps()
	m["serve.classify_cpu_us_per_tweet"] = burst.cpuUS()
	m["serve.classify_unaccounted_us"] = burst.cpuUS() - (m["twitterdata.decode_us"] + m["core.process_us"])
	return talk, burst, nil
}

// walLeg runs the workload's saturation phase against a server that keeps a
// write-ahead log (-log-dir, -fsync interval), untraced: what durability
// costs on the accept path, read against the untraced leg of the same pass.
func (e *env) walLeg(c *corpus, w workload, m map[string]float64) (*phase, error) {
	dir, err := e.scratchDir("wal")
	if err != nil {
		return nil, err
	}
	r, err := e.setUpWith(c, w, walArgs(dir)...)
	if err != nil {
		return nil, err
	}
	defer r.close()
	promBefore, err := r.srv.metrics()
	if err != nil {
		return nil, err
	}
	poll := pollDepths(r.srv)
	sat, err := r.load.saturate(e.phase(tracedWALShare))
	poll.finish()
	if err != nil {
		return nil, err
	}
	prom, err := r.srv.metrics()
	if err != nil {
		return nil, err
	}
	m["ingestlog.wal_tps"] = sat.tps()
	m["ingestlog.wal_cpu_us_per_tweet"] = sat.cpuUS()
	m["ingestlog.fsyncs"] = prom.sums["redhanded_ingestlog_fsyncs_total"] - promBefore.sums["redhanded_ingestlog_fsyncs_total"]
	m["ingestlog.lag_max"] = float64(poll.lagMax)
	return sat, nil
}

// traceOffline is the traced pass of pipeline_offline: the in-process layer
// pass on the paper mix, then three timed engine legs read from outside — the
// sequential engine, the micro-batch engine and a loopback cluster, on the
// same cores in the same invocation, so engine.microbatch_speedup and
// engine.cluster_tps share their base.
func (e *env) traceOffline(w workload, tweets []twitterdata.Tweet, p *core.Pipeline) (*result, error) {
	lines, err := marshalTweets(tweets[:layerWarmup+layerBlocks*layerBlock])
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	walDir, err := e.scratchDir("layer-wal")
	if err != nil {
		return nil, err
	}
	led, err := layerPass(lines, walDir, rec)
	if err != nil {
		return nil, err
	}
	m := led.metrics()

	// Three legs on the same cores in the same invocation, each from a
	// pipeline warmed the same way: the sequential engine (the workload
	// itself), the micro-batch engine on nproc workers, and a loopback
	// cluster.
	probe := e.probe
	const legs = 3
	cache := p.Extractor().CacheStats()
	seq, err := runEngine(kindSequential, p, tweets, e.phase(1.0/legs), nil, probe)
	if err != nil {
		return nil, fmt.Errorf("sequential leg: %w", err)
	}
	after := p.Extractor().CacheStats()
	m["feature.cache_hit_ratio"] = float64(after.Hits-cache.Hits) / float64(max(after.Hits+after.Misses-cache.Hits-cache.Misses, 1))
	m["stream.snapshot_rebuilds_per_ktweets"] = 1000 * float64(p.SnapshotStats().Rebuilds-seq.before.Rebuilds) / float64(seq.stats.Processed)
	m["userstate.active_users"] = float64(seq.stats.ActiveUsers)
	m["userstate.evictions"] = float64(seq.stats.UserEvictions)

	mb, err := runEngine(kindMicroBatch, newOfflinePipeline(tweets), tweets, e.phase(1.0/legs), nil, probe)
	if err != nil {
		return nil, fmt.Errorf("micro-batch leg: %w", err)
	}
	var addrs []string
	for i := 0; i < clusterExecutors; i++ {
		ex, err := engine.StartExecutor("127.0.0.1:0", 1)
		if err != nil {
			return nil, fmt.Errorf("start loopback executor: %w", err)
		}
		defer ex.Close()
		addrs = append(addrs, ex.Addr())
	}
	cl, err := runEngine(kindMicroBatch, newOfflinePipeline(tweets), tweets, e.phase(1.0/legs), addrs, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster leg: %w", err)
	}
	_, seqRaw := summarizeRounds(seq.rounds())
	m["e2e.verdict_latency_p99_ms"] = seqRaw["verdict_latency_p99_ms"]
	_, mbRaw := summarizeRounds(mb.rounds())
	m["engine.microbatch_tps"] = mb.tps()
	m["engine.microbatch_speedup"] = mb.tps() / seq.tps()
	m["engine.microbatch_alert_delay_p50_ms"] = mbRaw["verdict_latency_p50_ms"]
	m["engine.microbatch_batch_ms_mean"] = float64(mb.stats.MeanBatchLatency) / float64(time.Millisecond)
	m["engine.microbatch_batch_ms_max"] = float64(mb.stats.MaxBatchLatency) / float64(time.Millisecond)
	m["engine.cluster_tps"] = cl.tps()
	m["engine.cluster_broadcast_bytes_per_batch"] = float64(cl.stats.BroadcastBytes) / float64(max(cl.stats.Batches, 1))
	notes := []string{fmt.Sprintf("sequential leg: %.0f tweets/s; micro-batch leg: %.0f tweets/s on %d workers, alerts %.1f ms after their tweet was pulled (base: sequential leg); cluster leg: %.0f tweets/s on %d loopback executors x 1 worker",
		seq.tps(), mb.tps(), runtime.NumCPU(), mbRaw["verdict_latency_p50_ms"], cl.tps(), clusterExecutors)}
	attempted := seq.stats.Processed + mb.stats.Processed + cl.stats.Processed
	if err := e.writeSpans(w, rec); err != nil {
		return nil, err
	}
	notes = append(notes, fmt.Sprintf("%d spans written to %s/trace-%s.json", len(rec.spans), outDir, w.name))
	return &result{attempted: attempted, metrics: m, notes: notes}, nil
}
