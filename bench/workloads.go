package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// This file is the one table of the benchmark: every rate, size, phase
// share, flag and metric name lives here, so two people cannot run "the
// benchmark" differently. Nothing below is configurable from the command
// line except the seed, the workload subset, and the contract's -seconds.

// Server under test. Identical for every serving workload; only the
// write-ahead-log leg of a traced pass and the correctness pass add the WAL
// flags, and only traced passes add -trace.
const (
	queueDepth = 4096
	// defaultSeconds is BENCHMARK.json's run_seconds: how long one
	// invocation measures.
	defaultSeconds = 24
)

const (
	// An untraced serving run alternates these two for the measured seconds,
	// a probe between any two segments (calib.go). Short enough that the
	// machine's speed changes little from one probe to the next, long enough
	// for ~2 000 verdicts per steady segment (20 beyond its p99) and ~80
	// clock ticks of server CPU per burst.
	steadySegment = 600 * time.Millisecond
	burstSegment  = 400 * time.Millisecond
	// offlineWindow is the same for the offline engines: how long they run
	// between two probes.
	offlineWindow = 500 * time.Millisecond

	// A round or window during which the hypervisor took more than
	// maxStealShare of the machine's CPU time is spoiled and measured again
	// (stats.go); quiet rounds on the reference box see 0-2%, an episode
	// 20-50%. The run may overrun its seconds by graceShare of them doing so;
	// after that it keeps what it has. quietLook is how long the host must
	// stay under the limit before the run goes on.
	maxStealShare = 0.04
	graceShare    = 1.0 / 3
	quietLook     = 100 * time.Millisecond
	minRounds     = 6 // fewer unspoiled rounds than this and the spoiled ones are used after all

	// A traced serving pass splits its seconds between an untraced saturation
	// leg (the base of obs.trace_overhead_pct and serve.unaccounted_us), the
	// same on a server with -trace, a traced steady phase, and — where the
	// workload asks for them — a saturation leg with the write-ahead log on
	// and a synchronous-classify leg.
	tracedBaseShare       = 0.2
	tracedSaturationShare = 0.2
	tracedSteadyShare     = 0.25
	tracedWALShare        = 0.15
	tracedClassifyShare   = 0.2

	setupRepeats = 3 // setup_s is the median of this many full set-ups
)

// Serving corpus shape (see corpus.go for why each value is what it is).
const (
	corpusLines    = 100_000
	labeledShare   = 0.10
	zipfUsers      = 50_000
	zipfS          = 1.05
	zipfV          = 10
	clockStepMilli = 1
	retweetWindow  = 4000 // a retweet copies one of this many latest tweets: well inside one shard's 8192 cache entries
	spreadEvery    = 20   // one tweet in this many is one that gets retweeted
	ingestBatch    = 100
	classifyWarmup = 4_000 // requests the synchronous-classify leg warms its server with
	retryPause     = 2     // ms a saturation sender waits before resending a 429'd suffix
	catchUp        = 2     // an open-loop generator that fell behind sends at most this multiple of its rate
)

// Correctness pass.
const (
	checkTweets   = 20_000
	checkShards   = 2
	checkRetweets = 0.8
)

// Offline corpus (corpus_paper_mix) and engines.
const (
	offlineTotal     = 200_000
	offlineWarmup    = 10_000
	microBatchSize   = 1000
	clusterExecutors = 2
)

// In-process layer pass (T1).
const (
	layerWarmup = 10_000
	layerBlock  = 64
	layerBlocks = 256 // timed blocks per pass: 16 384 tweets through every layer
)

type kind int

const (
	kindFirehose kind = iota // POST /v1/ingest, verdict = SSE alert
	kindClassify             // POST /v1/classify, verdict = HTTP response: the synchronous-classify leg
	kindSequential
	kindMicroBatch // an engine of the traced pass of pipeline_offline, not a workload of its own
)

func (k kind) serving() bool { return k == kindFirehose || k == kindClassify }

type workload struct {
	name string
	kind kind
	// retweets is the share of unlabeled tweets that repeat an earlier
	// tweet's text (serving corpora).
	retweets float64
	// extraLegs adds two legs to the traced pass: saturation with the ingest
	// log on the accept path (ingestlog.wal_*), and the synchronous
	// /v1/classify path (serve.classify_*). Both were workloads of their own
	// in the issue; the reference box cannot resolve them (README).
	extraLegs bool
	// steadyRate is the open-loop offered load of the steady segments, in
	// tweets/s. It stays below a quarter of the workload's measured
	// saturation throughput on the reference box (README, "Sizing"), so that
	// it is still below half when the host slows the box down twofold.
	steadyRate float64
	// warmup is how many tweets the set-up pushes through the real request
	// path before the first timed phase.
	warmup int
	why    string
}

var workloads = []workload{
	{
		name: "firehose_unique", kind: kindFirehose, steadyRate: 10_000, warmup: 20_000, extraLegs: true,
		why: "Headline path: every text misses the extraction cache, so feature extraction dominates the per-tweet cost.",
	},
	{
		name: "firehose_retweets", kind: kindFirehose, retweets: 0.8, steadyRate: 10_000, warmup: 20_000,
		why: "Retweet-heavy: most texts hit the cache, so cache hit, classify, observe, queue and SSE emit carry the run.",
	},
	{
		name: "pipeline_offline", kind: kindSequential,
		why: "Single-threaded engine.RunSequential over the 21%-labeled paper mix: no HTTP or queue, train and recompile included.",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs is the complete aggroserve command line. No other flag may be
// used, so later changes can delete escape hatches without breaking the
// harness. extra carries only -log-dir/-fsync (write-ahead-log leg, check),
// -replay (check) and -trace (traced passes).
func serverArgs(addr string, shards int, extra ...string) []string {
	args := []string{
		"-addr", addr,
		"-shards", strconv.Itoa(shards),
		"-queue", strconv.Itoa(queueDepth),
		"-model", "ht",
		"-classes", "3",
		"-norm", "robust",
		"-adaptive-bow=true",
		"-preprocess=true",
		"-alert-threshold", "0.5",
		"-log-level", "warn",
	}
	return append(args, extra...)
}

func walArgs(dir string) []string { return []string{"-log-dir", dir, "-fsync", "interval"} }

// Connection counts: the load comes from this one process. classify_sync's
// bursts need more callers than cores: nproc callers that each wait for a
// reply leave both sides idle between requests, and the number measured is
// how fast a virtual CPU wakes from idle — which on the reference box swings
// threefold with the host's load.
func firehoseSenders() int { return max(1, runtime.NumCPU()-1) }
func classifySenders() int { return 4 * runtime.NumCPU() }

type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Two things the issue asked
// for are not here. failed_share is 0 on a healthy run, and a relative bound
// on 0 means nothing, so failures are the result's attempted/failed counts
// and the per-layer metric serve.failed_share. verdict_latency_p99_ms moved
// by 10-60% between runs of one commit on the reference box whatever was
// done to it, so the tail that is gated is the p90, and the p99 is reported
// per layer (e2e.verdict_latency_p99_ms).
//
// The bounds are what the reference box can resolve: with the calibrated
// clock (calib.go) ten runs of one commit spread by 4-8% of their median
// (README, "Repeatability"), a third of these bounds.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher", 0.25},
	{"cpu_us_per_tweet", "us", "lower", 0.25},
	{"verdict_latency_p50_ms", "ms", "lower", 0.25},
	{"verdict_latency_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger, layer = module name. A metric that does not apply
// to a workload (serve.* offline, engine.* outside pipeline_offline,
// ingestlog.wal_* and serve.classify_* outside firehose_unique) reads 0
// there.
var perLayer = []metricDef{
	{name: "twitterdata.decode_us", unit: "us", better: "lower"},
	{name: "twitterdata.decode_allocs", unit: "count", better: "lower"},
	{name: "ingestlog.append_us", unit: "us", better: "lower"},
	{name: "ingestlog.bytes_per_tweet", unit: "B", better: "lower"},
	{name: "ingestlog.wal_tps", unit: "1/s", better: "higher"},
	{name: "ingestlog.wal_cpu_us_per_tweet", unit: "us", better: "lower"},
	{name: "ingestlog.fsyncs", unit: "count", better: "lower"},
	{name: "ingestlog.lag_max", unit: "count", better: "lower"},
	{name: "ingestlog.replay_tps", unit: "1/s", better: "higher"},
	{name: "text.scan_us", unit: "us", better: "lower"},
	{name: "feature.extract_us", unit: "us", better: "lower"},
	{name: "feature.extract_allocs", unit: "count", better: "lower"},
	{name: "feature.cache_hit_us", unit: "us", better: "lower"},
	{name: "feature.cache_miss_us", unit: "us", better: "lower"},
	{name: "feature.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "norm.normalize_us", unit: "us", better: "lower"},
	{name: "stream.classify_us", unit: "us", better: "lower"},
	{name: "stream.train_us", unit: "us", better: "lower"},
	{name: "stream.compile_us", unit: "us", better: "lower"},
	{name: "stream.snapshot_rebuilds_per_ktweets", unit: "count", better: "lower"},
	{name: "userstate.observe_us", unit: "us", better: "lower"},
	{name: "userstate.active_users", unit: "count", better: "lower"},
	{name: "userstate.evictions", unit: "count", better: "lower"},
	{name: "core.process_us", unit: "us", better: "lower"},
	{name: "core.process_batch_us", unit: "us", better: "lower"},
	{name: "core.process_allocs", unit: "count", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "serve.accept_us", unit: "us", better: "lower"},
	{name: "serve.request_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_depth_p50", unit: "count", better: "lower"},
	{name: "serve.queue_depth_max", unit: "count", better: "lower"},
	{name: "serve.drain_batch_mean", unit: "count", better: "higher"},
	{name: "serve.rejected_share_sat", unit: "ratio", better: "lower"},
	{name: "serve.steady_cpu_us_per_tweet", unit: "us", better: "lower"},
	{name: "serve.alerts_per_tweet", unit: "ratio", better: "lower"},
	{name: "serve.sse_dropped_share", unit: "ratio", better: "lower"},
	{name: "serve.failed_share", unit: "ratio", better: "lower"},
	{name: "serve.unaccounted_us", unit: "us", better: "lower"},
	{name: "serve.classify_tps", unit: "1/s", better: "higher"},
	{name: "serve.classify_cpu_us_per_tweet", unit: "us", better: "lower"},
	{name: "serve.classify_unaccounted_us", unit: "us", better: "lower"},
	{name: "serve.classify_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.classify_p90_ms", unit: "ms", better: "lower"},
	{name: "serve.trace.queue_p50_us", unit: "us", better: "lower"},
	{name: "serve.trace.queue_p99_us", unit: "us", better: "lower"},
	{name: "serve.trace.cache_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.extract_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.classify_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.observe_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.verdict_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.emit_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace.compile_mean_us", unit: "us", better: "lower"},
	{name: "serve.trace_ledger_gap_pct", unit: "%", better: "lower"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "engine.microbatch_tps", unit: "1/s", better: "higher"},
	{name: "engine.microbatch_speedup", unit: "ratio", better: "higher"},
	{name: "engine.microbatch_alert_delay_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.microbatch_batch_ms_mean", unit: "ms", better: "lower"},
	{name: "engine.microbatch_batch_ms_max", unit: "ms", better: "lower"},
	{name: "engine.cluster_tps", unit: "1/s", better: "higher"},
	{name: "engine.cluster_broadcast_bytes_per_batch", unit: "B", better: "lower"},
	{name: "e2e.verdict_latency_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
	{name: "loadgen.host_steal_share", unit: "ratio", better: "lower"},
}
