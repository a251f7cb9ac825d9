// Package serve is the real-time serving subsystem: a production-style
// HTTP front end (stdlib net/http only) over the detection pipeline of
// internal/core. The server runs N pipeline shards — one goroutine and one
// core.Pipeline each — and routes every tweet to hash(userID) % N, so the
// per-user state in the pipeline (alert history, session windows) keeps
// shard affinity. Each shard is fed through a bounded queue; when a queue
// is full the server sheds load with HTTP 429 and a Retry-After header
// instead of buffering without bound.
//
// Endpoints:
//
//	POST /v1/classify  one tweet, synchronous prediction
//	POST /v1/ingest    NDJSON batch, asynchronous, returns accept counts
//	GET  /v1/alerts    live alert stream (Server-Sent Events)
//	GET  /v1/stats     per-shard prequential metrics and queue state
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text-format metrics
//
// The alert stream is coalesced: a subscriber's writer sends whatever is
// queued for it in one write and flush, so a client may receive several
// events in one chunk. Each event still ends with a blank line (the SSE
// frame boundary), and ids increase strictly per subscriber.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/metrics"
	"redhanded/internal/obs"
	"redhanded/internal/twitterdata"
)

// Options configures a Server.
type Options struct {
	// Pipeline configures every shard's detection pipeline.
	Pipeline core.Options
	// Shards is the number of pipeline shards (default 4). Tweets are
	// routed by hash(userID) % Shards, so the count must stay stable
	// across checkpoint/restore cycles for user state to line up.
	Shards int
	// QueueDepth bounds each shard's ingestion queue (default 1024).
	QueueDepth int
	// Registry receives the server's metrics (default metrics.Default()):
	// the event-driven counters and histograms, and one collector that
	// reads each shard's pipeline, the ingest log and the alert hub once
	// per scrape and writes every family they own from that reading.
	Registry *metrics.Registry
	// Trace turns on the per-tweet stage tracing layer (internal/obs): one
	// ring per shard, stage histograms in Registry, and slow capture of
	// spans over the tracer's default 25 ms budget. When false the tracer
	// is nil and every span operation is a no-op.
	Trace bool
	// Log, when set, turns ingestion into a write-ahead path: every
	// accepted tweet is appended to its shard's log partition before it is
	// enqueued, and Replay restores unapplied records after a crash. The
	// log's partition count must equal Shards (the two route with the same
	// hash); NewServer panics on a mismatch since running with broken
	// affinity would corrupt replay. The server does not close the log.
	Log *ingestlog.Log

	// slowBudget replaces the 25 ms slow budget when non-zero (negative
	// disables slow capture); only in-package tests set it.
	slowBudget time.Duration
}

// DefaultServerOptions returns the paper-default pipeline behind 4 shards.
func DefaultServerOptions() Options {
	return Options{Pipeline: core.DefaultOptions()}
}

// The server's fixed tuning. drainBatchMax caps how many queued tweets a
// shard drains per core.ProcessBatch call: batching amortizes the
// pipeline's lock acquisitions over runs of queued tweets, and it never
// waits for a batch to form — the shard loop blocks for the first job only
// and takes whatever else is already queued, so an idle server keeps
// per-tweet latency. alertBuffer is each SSE subscriber's buffer: a slow
// consumer drops alerts beyond it rather than stalling the pipeline.
// maxIngestBytes caps one /v1/ingest request body.
const (
	drainBatchMax  = 32
	alertBuffer    = 256
	maxIngestBytes = 32 << 20
)

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.Registry == nil {
		o.Registry = metrics.Default()
	}
	return o
}

// job is one queued unit of work. Synchronous classify requests carry a
// reply channel (buffered, so the shard loop never blocks on it). The span
// (nil when tracing is off) is begun at enqueue so its queue stage covers
// the wait for the shard goroutine; ownership transfers with the job.
type job struct {
	tweet twitterdata.Tweet
	reply chan core.Result
	span  *obs.Span
	// offset is the tweet's ingest-log offset when the server runs with a
	// WAL (logged true); the shard loop passes both on in the tweet's
	// core.BatchEntry so the pipeline's applied offset advances with the
	// tweet's effects.
	offset int64
	logged bool
}

// shard is one pipeline partition: a bounded queue drained by a single
// goroutine that owns the (non-thread-safe) core.Pipeline.
type shard struct {
	id         int
	labels     metrics.Labels // {shard="<id>"}, on every per-shard series
	p          *core.Pipeline
	queue      chan job
	drainBatch int // drainBatchMax; in-package tests set others
	drainSize  *metrics.Histogram
	// busy is the loop's wall time on drained batches in nanoseconds; over
	// elapsed time it is the shard's busy fraction.
	busy atomic.Int64

	// mu guards entering the shard: admit, Drain closing the queue
	// (closed) and Replay taking the pipeline (replaying). lastEnqueued is
	// the highest log offset handed to the queue or replayed (-1
	// initially); Drain's barrier compares it against the pipeline's
	// applied offset to prove nothing logged was lost between queue and
	// pipeline.
	mu           sync.Mutex
	closed       bool
	replaying    bool
	lastEnqueued int64
}

// run drains the shard queue in micro-batches: block for one job, then
// take whatever else is already queued (up to drainBatch) without
// waiting, and hand the whole slice to core.ProcessBatch, which
// amortizes the pipeline's lock acquisitions across the batch. Replies
// are delivered in queue order after the batch completes; a synchronous
// classify therefore waits at most one batch (bounded by drainBatchMax),
// and only when the queue was already backlogged.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	jobs := make([]job, 0, s.drainBatch)
	entries := make([]core.BatchEntry, 0, s.drainBatch)
	results := make([]core.Result, 0, s.drainBatch)
	closed := false
	for !closed {
		j, ok := <-s.queue
		if !ok {
			return
		}
		jobs = append(jobs[:0], j)
	fill:
		for len(jobs) < s.drainBatch {
			select {
			case j, ok := <-s.queue:
				if !ok {
					closed = true // process what we hold, then exit
					break fill
				}
				jobs = append(jobs, j)
			default:
				break fill
			}
		}

		start := time.Now()
		entries = entries[:0]
		for i := range jobs {
			entries = append(entries, core.BatchEntry{
				Tweet:  &jobs[i].tweet,
				Span:   jobs[i].span,
				Offset: jobs[i].offset,
				Logged: jobs[i].logged,
			})
		}
		results = s.p.ProcessBatch(entries, results[:0])
		for i := range jobs {
			jobs[i].span.Finish() // before the reply: a reply implies a recorded span
			if jobs[i].reply != nil {
				jobs[i].reply <- results[i]
			}
		}
		s.busy.Add(int64(time.Since(start)))
		s.drainSize.Observe(float64(len(jobs)))
	}
}

// Server fronts the sharded pipelines over HTTP. It implements
// http.Handler; pass it to http.Server or httptest directly.
type Server struct {
	opts   Options
	shards []*shard
	hub    *alertHub
	tracer *obs.Tracer // nil when tracing is disabled
	mux    *http.ServeMux
	start  time.Time
	// drained is closed once Drain has closed the queues and every shard
	// loop has exited: it releases Drain's callers and ends the SSE alert
	// streams (after they write what the shards left queued), so graceful
	// HTTP shutdown can complete.
	drained chan struct{}

	// closed is set by the first Drain, which then closes every shard.
	closed atomic.Bool
	wg     sync.WaitGroup

	accepted  *metrics.Counter
	rejected  *metrics.Counter
	malformed *metrics.Counter
	// latency holds one histogram per terminal classify outcome, so
	// rejected and canceled requests stop polluting the accepted-path
	// series while still being observable.
	latency map[string]*metrics.Histogram
}

// Terminal outcomes of POST /v1/classify, used as the outcome label on the
// request-latency histogram.
const (
	outcomeOK         = "ok"
	outcomeBadRequest = "bad_request"
	outcomeQueueFull  = "queue_full"
	outcomeDraining   = "draining"
	outcomeCanceled   = "canceled"
)

var classifyOutcomes = []string{outcomeOK, outcomeBadRequest, outcomeQueueFull, outcomeDraining, outcomeCanceled}

// NewServer builds the sharded server and starts its shard goroutines.
func NewServer(opts Options) *Server {
	return newServer(opts, true)
}

// newServer optionally skips starting the shard loops (tests use a stalled
// server to exercise backpressure deterministically).
func newServer(opts Options, start bool) *Server {
	opts = opts.withDefaults()
	if opts.Log != nil && opts.Log.Partitions() != opts.Shards {
		// Misaligned routing would replay users into the wrong shard's
		// pipeline; this is a deployment error, not a runtime condition.
		panic(fmt.Sprintf("serve: ingest log has %d partitions, server has %d shards",
			opts.Log.Partitions(), opts.Shards))
	}
	// The configured user cap is a per-server budget: divide it across the
	// shard pipelines (each owns an independent userstate store) so the
	// process-wide record count stays within Pipeline.Users.MaxUsers.
	// (Degenerate budgets below the shard count resolve to one record per
	// shard — the smallest enforceable bound.)
	if opts.Pipeline.Users.MaxUsers > 0 {
		per := opts.Pipeline.Users.MaxUsers / opts.Shards
		if per < 1 {
			per = 1
		}
		opts.Pipeline.Users.MaxUsers = per
	}
	reg := opts.Registry
	s := &Server{
		opts:      opts,
		hub:       newAlertHub(alertBuffer, reg),
		start:     time.Now(),
		drained:   make(chan struct{}),
		accepted:  reg.Counter("redhanded_ingest_accepted_total", "Tweets accepted into a shard queue.", nil),
		rejected:  reg.Counter("redhanded_ingest_rejected_total", "Tweets rejected with 429 because a shard queue was full.", nil),
		malformed: reg.Counter("redhanded_ingest_malformed_total", "NDJSON lines that failed to decode.", nil),
		latency:   make(map[string]*metrics.Histogram, len(classifyOutcomes)),
	}
	for _, outcome := range classifyOutcomes {
		s.latency[outcome] = reg.Histogram("redhanded_classify_latency_seconds",
			"End-to-end /v1/classify request latency by terminal outcome.",
			nil, metrics.Labels{"outcome": outcome})
	}
	if opts.Trace {
		s.tracer = obs.New(obs.Config{Shards: opts.Shards, SlowBudget: opts.slowBudget, Registry: reg})
	}
	for i := 0; i < opts.Shards; i++ {
		labels := metrics.Labels{"shard": fmt.Sprint(i)}
		sh := &shard{
			id:           i,
			labels:       labels,
			p:            core.NewPipeline(opts.Pipeline),
			queue:        make(chan job, opts.QueueDepth),
			drainBatch:   drainBatchMax,
			lastEnqueued: -1,
			drainSize: reg.Histogram("redhanded_shard_drain_batch",
				"Tweets drained per shard-loop batch.", drainBuckets, labels),
		}
		sh.p.Alerter().Subscribe(s.hub)
		sh.p.SubscribeVerdicts(s.hub)
		s.shards = append(s.shards, sh)
	}
	reg.Collect("serve", s.writeMetrics)
	s.mux = s.routes()
	if start {
		for _, sh := range s.shards {
			s.wg.Add(1)
			go sh.run(&s.wg)
		}
	}
	return s
}

// drainBuckets are the shard drain-batch-size histogram buckets: batch
// sizes are small integers bounded by drainBatchMax, not latencies.
var drainBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// ShardFor returns the shard index a user's tweets are routed to. The
// mapping is a pure function of (userID, shards), so it is stable across
// restarts and identical on every node running the same shard count. It is
// the write-ahead log's partition function, so shard i processes exactly
// the tweets log partition i holds.
func ShardFor(userID string, shards int) int {
	return ingestlog.PartitionFor(userID, shards)
}

func (s *Server) shardOf(tw *twitterdata.Tweet) *shard {
	key := tw.User.IDStr
	if key == "" {
		key = tw.IDStr
	}
	return s.shards[ShardFor(key, len(s.shards))]
}

// errServerClosed distinguishes drain-time rejection from backpressure.
var errServerClosed = fmt.Errorf("serve: server is draining")

// admit is the one way into a shard. Under the shard's mutex it refuses a
// drained or replaying shard (an error: 503), sheds on a full queue before
// anything is written (false: 429), appends raw — the tweet's NDJSON wire
// form, copied into the log before admit returns — to the shard's log
// partition when the server has one, and sends the job. A failed append
// is shed like a full queue when the log is out of fsync budget and is an
// error otherwise. The send cannot block, since the queue had room and
// only mutex holders send, so a logged tweet is always applied, and log
// order equals queue order. The tweet's span opens at the send: its queue
// stage is the wait for the shard goroutine, and a shed tweet has none.
func (s *Server) admit(j job, raw []byte) (*shard, bool, error) {
	sh := s.shardOf(&j.tweet)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.closed:
		return nil, false, errServerClosed
	case sh.replaying:
		return nil, false, errReplaying
	case len(sh.queue) == cap(sh.queue):
		return sh, false, nil
	}
	if l := s.opts.Log; l != nil {
		off, err := l.Append(sh.id, raw)
		if errors.Is(err, ingestlog.ErrBackpressure) {
			return sh, false, nil
		}
		if err != nil {
			return sh, false, fmt.Errorf("serve: ingest log: %w", err)
		}
		j.offset, j.logged = off, true
		sh.lastEnqueued = off
	}
	j.span = s.tracer.Begin(sh.id)
	j.span.SetID(j.tweet.IDStr)
	//redvet:ignore lockorder cannot block: queue capacity was checked under this same sh.mu and only its holders send, so the send always has room; the mutex is what makes log order equal queue order and keeps Drain from closing the queue mid-send
	sh.queue <- j
	return sh, true, nil
}

// Tracer exposes the server's tracing layer (nil when disabled).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Pipeline exposes shard i's pipeline (read-only introspection; the shard
// goroutine owns mutation).
func (s *Server) Pipeline(i int) *core.Pipeline { return s.shards[i].p }

// Drain stops accepting work, closes the shard queues, and waits (up to
// ctx) for the shards to finish what is already queued; only then do the
// SSE streams end, so every alert those tweets raise is written first.
// After Drain the ingestion endpoints answer 503; read-only endpoints keep
// working so the final state remains observable during shutdown.
func (s *Server) Drain(ctx context.Context) error {
	if !s.closed.Swap(true) {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.closed = true
			close(sh.queue)
			sh.mu.Unlock()
		}
		// Outlives a Drain whose ctx expires: the streams still end when
		// the shards finish, and a later Drain call waits on the same signal.
		go func() {
			s.wg.Wait()
			close(s.drained)
		}()
	}

	select {
	case <-s.drained:
		// Log-offset-aware barrier: the shard loops have exited, so every
		// offset handed to a queue must now be applied. A shortfall means a
		// logged tweet was lost between queue and pipeline — checkpointing
		// that state would silently skip it on replay, so fail loudly
		// instead. (Without a WAL both sides stay -1 and the check is
		// vacuous; queue drainage is all the old barrier could prove.)
		for _, sh := range s.shards {
			sh.mu.Lock()
			want := sh.lastEnqueued
			sh.mu.Unlock()
			if sh.p.LogOffset() < want {
				return fmt.Errorf("serve: drain: shard %d applied log offset %d, but offset %d was enqueued",
					sh.id, sh.p.LogOffset(), want)
			}
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Uptime returns time since the server was built.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}
