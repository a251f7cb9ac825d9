// Command aggroserve runs the real-time aggression detection pipeline as a
// sharded HTTP service: tweets arrive over POST /v1/classify (synchronous)
// and POST /v1/ingest (NDJSON batches, asynchronous), alerts stream out of
// GET /v1/alerts as Server-Sent Events, and GET /v1/stats and GET /metrics
// expose per-shard prequential metrics and Prometheus-format counters.
//
// Usage:
//
//	aggroserve -addr :8080 -shards 4 -queue 2048
//	aggroserve -model slr -classes 2 -checkpoint /var/lib/aggro -restore
//	aggroserve -log-dir /var/lib/aggro/log -fsync interval -replay
//	aggroserve -trace -debug-addr 127.0.0.1:6060
//
// With -log-dir every accepted tweet is appended to a partitioned
// write-ahead log before it is enqueued (-fsync selects the durability
// policy), and -replay re-applies unapplied records on startup — after
// -restore, the combination resumes exactly where a crashed process
// stopped, losing at most records the filesystem had not committed.
//
// With -trace every tweet is stamped with a span at ingest and its per-stage
// timings (queue wait, feature extraction, classification, user-state
// observe, verdict fan-out, SSE emit) are served from GET /v1/trace and
// GET /v1/trace/slow, which keeps the full stage breakdown of spans over
// 25 ms; -debug-addr starts a separate listener with net/http/pprof plus
// the trace endpoints and registers runtime gauges on /metrics.
//
// On SIGINT/SIGTERM the server stops accepting work, drains every shard
// queue, and (with -checkpoint) writes one core checkpoint per shard so a
// restart with -restore resumes the incrementally learned state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/metrics"
	"redhanded/internal/norm"
	"redhanded/internal/obs"
	"redhanded/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		model      = flag.String("model", "ht", "streaming model: ht, arf, slr")
		classes    = flag.String("classes", "3", "class scheme: 2 or 3")
		preprocess = flag.Bool("preprocess", true, "enable text preprocessing")
		normMode   = flag.String("norm", "robust", "normalization: none, minmax, robust, zscore")
		adaptive   = flag.Bool("adaptive-bow", true, "enable the adaptive bag-of-words")
		threshold  = flag.Float64("alert-threshold", 0.5, "alert confidence threshold")
		shards     = flag.Int("shards", 4, "pipeline shards (user affinity is hash(userID) % shards)")
		queue      = flag.Int("queue", 2048, "per-shard queue depth before 429 backpressure")
		checkpoint = flag.String("checkpoint", "", "checkpoint directory written on graceful shutdown")
		restore    = flag.Bool("restore", false, "restore shard state from -checkpoint before serving")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max time to drain shard queues on shutdown")

		logDir    = flag.String("log-dir", "", "durable ingest log directory; accepted tweets are write-ahead logged per shard")
		fsyncMode = flag.String("fsync", "interval", "ingest log durability: off, interval (fsync every 100ms), always")
		replay    = flag.Bool("replay", false, "replay unapplied ingest-log records before serving (requires -log-dir)")

		maxUsers = flag.Int("max-users", 0, "user-state record cap across all shards, CLOCK-evicted (0 = unbounded)")
		userTTL  = flag.Duration("user-ttl", 24*time.Hour, "retire user records idle this long (event time; amortized into the hot path)")
		escScore = flag.Float64("escalation-threshold", 0.6, "EWMA aggression score that flags a user as escalating (negative disables)")
		escMin   = flag.Int("escalation-min-tweets", 8, "minimum observed tweets before a user can escalate")

		trace     = flag.Bool("trace", false, "stamp every tweet with a per-stage span (GET /v1/trace, /v1/trace/slow)")
		debugAddr = flag.String("debug-addr", "", "optional debug listener with net/http/pprof + trace endpoints; also registers runtime gauges on /metrics")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	opts := core.DefaultOptions()
	opts.Preprocess = *preprocess
	opts.AdaptiveBoW = *adaptive
	opts.AlertThreshold = *threshold
	opts.Users.MaxUsers = *maxUsers
	opts.Users.TTL = *userTTL
	opts.Users.Escalation.Threshold = *escScore
	opts.Users.Escalation.MinTweets = *escMin
	var err error
	if opts.Model, err = core.ParseModelKind(*model); err != nil {
		fatal("bad -model", "err", err)
	}
	if opts.Scheme, err = core.ParseScheme(*classes); err != nil {
		fatal("bad -classes", "err", err)
	}
	if opts.Normalization, err = norm.ParseMode(*normMode); err != nil {
		fatal("bad -norm", "err", err)
	}

	var ilog *ingestlog.Log
	if *logDir != "" {
		policy, err := ingestlog.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal("bad -fsync", "err", err)
		}
		ilog, err = ingestlog.Open(ingestlog.Options{
			Dir:        *logDir,
			Partitions: *shards,
			Fsync:      policy,
		})
		if err != nil {
			fatal("ingest log open failed", "dir", *logDir, "err", err)
		}
		defer ilog.Close()
		logger.Info("ingest log open", "dir", *logDir, "partitions", *shards, "fsync", policy.String())
	} else if *replay {
		fatal("-replay requires -log-dir")
	}

	srv := serve.NewServer(serve.Options{
		Pipeline:   opts,
		Shards:     *shards,
		QueueDepth: *queue,
		Log:        ilog,
		Trace:      *trace,
	})
	if *restore {
		if *checkpoint == "" {
			fatal("-restore requires -checkpoint")
		}
		if err := srv.Restore(*checkpoint); err != nil {
			fatal("restore failed", "dir", *checkpoint, "err", err)
		}
		logger.Info("restored checkpoint", "shards", srv.Shards(), "dir", *checkpoint)
	}
	if *replay {
		// Replay before serving: apply every log record past each shard's
		// restored offset (with no -restore, the whole log), so the first
		// live tweet lands on the exact state the crashed process had.
		start := time.Now()
		n, err := srv.Replay()
		if err != nil {
			fatal("replay failed", "dir", *logDir, "err", err)
		}
		logger.Info("replayed ingest log", "records", n, "dir", *logDir,
			"took", time.Since(start).Round(time.Millisecond).String())
	}

	if *debugAddr != "" {
		obs.RegisterRuntimeGauges(metrics.Default())
		_, stopDebug, err := obs.StartDebugServer(*debugAddr, srv.Tracer())
		if err != nil {
			fatal("debug listener failed", "addr", *debugAddr, "err", err)
		}
		defer stopDebug()
		logger.Info("debug server listening", "addr", *debugAddr, "pprof", true, "trace", *trace)
	}

	// WriteTimeout stays 0: /v1/alerts is a long-lived SSE stream.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		"addr", *addr, "model", opts.Model.String(), "scheme", opts.Scheme.String(),
		"shards", *shards, "queue", *queue, "trace", *trace)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal("server failed", "err", err)
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	}

	// Drain first: it stops intake, waits for the shard queues to empty,
	// and then ends the long-lived SSE streams (after they have written the
	// last alerts) — so the HTTP shutdown that follows (which waits on
	// in-flight requests) finishes promptly and cannot eat the drain budget.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainWait)
	defer cancelDrain()
	drainErr := srv.Drain(drainCtx)
	if drainErr != nil {
		logger.Error("drain failed", "err", drainErr)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		logger.Error("http shutdown failed", "err", err)
	}
	switch {
	case *checkpoint == "":
	case drainErr != nil:
		// Shards may still be training; a checkpoint now would serialize
		// state mid-mutation and -restore would load it as authoritative.
		logger.Warn("skipping checkpoint: shards did not drain cleanly")
	default:
		if err := srv.Checkpoint(*checkpoint); err != nil {
			logger.Error("checkpoint failed", "dir", *checkpoint, "err", err)
		} else {
			logger.Info("checkpointed", "shards", srv.Shards(), "dir", *checkpoint)
		}
	}
	var processed, warnings, drifts, replacements int64
	var activeUsers, evictions, sessionVerdicts, escalations int64
	for i := 0; i < srv.Shards(); i++ {
		p := srv.Pipeline(i)
		processed += p.Processed()
		if d := p.DriftStats(); d != nil {
			warnings += d.Warnings
			drifts += d.Drifts
			replacements += d.TreeReplacements
		}
		users := p.Users()
		activeUsers += int64(users.Len())
		capEv, ttlEv := users.Evictions()
		evictions += capEv + ttlEv
		sessionVerdicts += users.SessionVerdicts()
		escalations += users.Escalations()
	}
	fmt.Printf("processed %d tweets across %d shards in %s\n",
		processed, srv.Shards(), srv.Uptime().Round(time.Millisecond))
	fmt.Printf("user state: %d active users (%d evicted), %d session verdicts, %d escalations\n",
		activeUsers, evictions, sessionVerdicts, escalations)
	if opts.Model == core.ModelARF {
		fmt.Printf("drift: %d warnings, %d drifts, %d tree replacements\n",
			warnings, drifts, replacements)
	}
	if errors.Is(<-errc, http.ErrServerClosed) {
		return
	}
}
