// Package engine provides the execution substrates the paper evaluates in
// §V-E. RunSequential is the MOA execution model: one tweet at a time
// through Pipeline.Process. The two batch engines share one computation
// (share.go): computeShare runs a share of a micro-batch in two parallel
// phases — extract and accumulate normalizer statistics, then normalize,
// predict with the batch-start model and accumulate training deltas — and
// mergeBatch folds the shares into the pipeline. RunMicroBatch makes the
// whole batch one share on local goroutines (SparkSingle with one worker,
// SparkLocal with many); RunCluster splits it across executors on separate
// TCP endpoints, broadcasting the global state each batch (SparkCluster).
package engine

import (
	"time"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// tweetsProcessedTotal counts tweets run through any engine in the process
// on the default metrics registry (one atomic add per tweet or batch).
var tweetsProcessedTotal = metrics.Default().Counter(
	"redhanded_engine_tweets_processed_total",
	"Tweets processed by the execution engines.", nil)

// Source yields a stream of tweets. Next returns false when the stream is
// exhausted. A source that can fail, like the JSONL *twitterdata.Reader,
// ends the stream at the fault and reports it through its own Err.
type Source interface {
	Next() (twitterdata.Tweet, bool)
}

// SliceSource streams a dataset slice.
type SliceSource struct {
	tweets []twitterdata.Tweet
	pos    int
}

// NewSliceSource wraps a dataset.
func NewSliceSource(tweets []twitterdata.Tweet) *SliceSource {
	return &SliceSource{tweets: tweets}
}

// Next implements Source.
func (s *SliceSource) Next() (twitterdata.Tweet, bool) {
	if s.pos >= len(s.tweets) {
		return twitterdata.Tweet{}, false
	}
	t := s.tweets[s.pos]
	s.pos++
	return t, true
}

// MixedSource interleaves a finite labeled dataset uniformly into an
// endless unlabeled stream, producing exactly Total tweets — the workload
// of the scalability experiments ("a fixed number of unlabeled tweets
// intermixed with the 86k labeled tweets").
type MixedSource struct {
	labeled   []twitterdata.Tweet
	unlabeled *twitterdata.UnlabeledSource
	total     int64
	emitted   int64
	nextLab   int
}

// NewMixedSource builds the mixture. Labeled tweets are spread evenly over
// the total stream length.
func NewMixedSource(labeled []twitterdata.Tweet, unlabeled *twitterdata.UnlabeledSource, total int64) *MixedSource {
	return &MixedSource{labeled: labeled, unlabeled: unlabeled, total: total}
}

// Next implements Source.
func (m *MixedSource) Next() (twitterdata.Tweet, bool) {
	if m.emitted >= m.total {
		return twitterdata.Tweet{}, false
	}
	m.emitted++
	// Emit the next labeled tweet when its scheduled position arrives.
	if m.nextLab < len(m.labeled) {
		due := int64(m.nextLab+1) * m.total / int64(len(m.labeled)+1)
		if m.emitted >= due {
			t := m.labeled[m.nextLab]
			m.nextLab++
			return t, true
		}
	}
	return m.unlabeled.Next(), true
}

// Stats summarises one engine run.
type Stats struct {
	// Processed is the number of tweets run through the pipeline.
	Processed int64
	// Duration is the wall-clock execution time.
	Duration time.Duration
	// Batches is the number of micro-batches executed (0 for sequential).
	Batches int
	// MeanBatchLatency and MaxBatchLatency describe per-micro-batch
	// processing time — the framework's alerting delay bound (alerts for
	// a tweet are raised at the end of its batch).
	MeanBatchLatency time.Duration
	MaxBatchLatency  time.Duration

	// Cluster-engine wire accounting (zero for local engines).
	// BroadcastBytes counts model/stats/vocab frames; an unchanged model and
	// vocabulary cost a few bytes per batch instead of a full re-broadcast.
	// DataBytes counts tweet shares.
	BroadcastBytes int64
	DataBytes      int64
	// Failovers counts shares moved to another executor after an exchange
	// on their node failed — including the first share sent to a node that
	// died between batches, since a death is found by the exchange that
	// meets it. Reconnects counts executors that came back after a mid-run
	// failure.
	Failovers  int64
	Reconnects int64

	// Drift telemetry for this run (models with drift detectors, e.g. the
	// ARF's per-member ADWIN pairs; zero for other models). Warnings counts
	// background trees started, Drifts counts detector signals, and
	// TreeReplacements counts member trees swapped out.
	Warnings         int64
	Drifts           int64
	TreeReplacements int64

	// User-state cardinality: records tracked by the pipeline's userstate
	// store when the run finished (sessions, offense histories, escalation
	// scores), plus records the store evicted to stay within its cap/TTL.
	ActiveUsers   int64
	UserEvictions int64
}

// Throughput returns tweets per second.
func (s Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Processed) / s.Duration.Seconds()
}

// runMeter measures one engine run: the counts as its batches finish, then
// the fields every engine fills when the run ends. The model's drift
// counters are read at the start, so every engine reports the drift
// activity of its own run, even on a pipeline that has already lived
// through earlier runs.
type runMeter struct {
	stats      Stats
	p          *core.Pipeline
	start      time.Time
	batchTotal time.Duration
	drift      stream.DriftReporter // nil for models without drift detectors
	driftStart stream.DriftStats
}

func startRun(p *core.Pipeline) runMeter {
	m := runMeter{p: p, start: time.Now()}
	if dr, ok := p.Model().(stream.DriftReporter); ok {
		m.drift, m.driftStart = dr, dr.DriftStats()
	}
	return m
}

// batch counts one finished micro-batch of n tweets that began at start.
func (m *runMeter) batch(n int, start time.Time) {
	d := time.Since(start)
	m.batchTotal += d
	m.stats.MaxBatchLatency = max(m.stats.MaxBatchLatency, d)
	m.stats.Processed += int64(n)
	m.stats.Batches++
	tweetsProcessedTotal.Add(int64(n))
}

// finish returns the run's Stats with the end-of-run fields filled: wall
// time, mean batch latency, drift since the start and the user store's
// cardinality and evictions.
func (m *runMeter) finish() Stats {
	s := m.stats
	s.Duration = time.Since(m.start)
	if s.Batches > 0 {
		s.MeanBatchLatency = m.batchTotal / time.Duration(s.Batches)
	}
	if m.drift != nil {
		now := m.drift.DriftStats()
		s.Warnings = now.Warnings - m.driftStart.Warnings
		s.Drifts = now.Drifts - m.driftStart.Drifts
		s.TreeReplacements = now.TreeReplacements - m.driftStart.TreeReplacements
	}
	users := m.p.Users()
	s.ActiveUsers = int64(users.Len())
	capEv, ttlEv := users.Evictions()
	s.UserEvictions = capEv + ttlEv
	return s
}

// RateLimitedSource throttles another source to a fixed arrival rate in
// tweets/second, simulating a live stream (e.g. the ~9k tweets/s Twitter
// Firehose) for end-to-end latency experiments.
type RateLimitedSource struct {
	src     Source
	perItem time.Duration
	next    time.Time
}

// NewRateLimitedSource wraps src at the given arrival rate (tweets/sec).
func NewRateLimitedSource(src Source, rate float64) *RateLimitedSource {
	if rate <= 0 {
		rate = 1
	}
	return &RateLimitedSource{src: src, perItem: time.Duration(float64(time.Second) / rate)}
}

// Next implements Source, sleeping as needed to honour the arrival rate.
func (r *RateLimitedSource) Next() (twitterdata.Tweet, bool) {
	now := time.Now()
	if r.next.IsZero() {
		r.next = now
	}
	if wait := r.next.Sub(now); wait > 0 {
		time.Sleep(wait)
	}
	r.next = r.next.Add(r.perItem)
	return r.src.Next()
}

// RunSequential executes the pipeline one tweet at a time on the calling
// goroutine — the MOA execution model (single-threaded ML engine without
// parallelized processing).
func RunSequential(p *core.Pipeline, src Source) Stats {
	m := startRun(p)
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		p.Process(&t)
		m.stats.Processed++
		tweetsProcessedTotal.Inc()
	}
	return m.finish()
}
