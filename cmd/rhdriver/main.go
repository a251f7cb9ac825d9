// Command rhdriver runs the cluster driver: it streams a JSONL tweet file
// through the detection pipeline, distributing the micro-batch work across
// rhexecutor nodes.
//
// Usage:
//
//	rhexecutor -addr 127.0.0.1:7701 &
//	rhexecutor -addr 127.0.0.1:7702 &
//	datagen -dataset aggression -scale 0.2 -out tweets.jsonl
//	rhdriver -executors 127.0.0.1:7701,127.0.0.1:7702 -in tweets.jsonl
//	rhdriver -executors 127.0.0.1:7701,127.0.0.1:7702 -model arf -in tweets.jsonl
//	rhdriver -executors 127.0.0.1:7701 -in tweets.jsonl -trace -debug-addr 127.0.0.1:6061
//
// With -trace each micro-batch gets a driver-side span (queue, executor
// round-trip, executor compute as echoed over the wire, merge) served from
// the -debug-addr listener's /v1/trace endpoints alongside net/http/pprof,
// and a per-stage quantile table is printed with the run summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/engine"
	"redhanded/internal/metrics"
	"redhanded/internal/obs"
	"redhanded/internal/twitterdata"
)

// batchSlowBudget is the batch latency over which a traced batch keeps its
// full stage breakdown on /v1/trace/slow.
const batchSlowBudget = 250 * time.Millisecond

func main() {
	var (
		in        = flag.String("in", "-", "input JSONL path (- for stdin)")
		executors = flag.String("executors", "", "comma-separated executor addresses")
		classes   = flag.String("classes", "3", "class scheme: 2 or 3")
		model     = flag.String("model", "ht", "streaming model: ht, arf, slr")
		batch     = flag.Int("batch", 3000, "micro-batch size")
		tasks     = flag.Int("tasks", 8, "parallel tasks per executor")
		rate      = flag.Float64("rate", 0, "simulated arrival rate in tweets/sec (0 = as fast as possible)")

		trace     = flag.Bool("trace", false, "record a per-batch span (queue, executor_rtt, executor_compute, merge)")
		debugAddr = flag.String("debug-addr", "", "optional debug listener with net/http/pprof, /v1/trace, and runtime gauges on /metrics")
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
	var err error
	if opts.Model, err = core.ParseModelKind(*model); err != nil {
		fatal("bad -model", "err", err)
	}
	if opts.Scheme, err = core.ParseScheme(*classes); err != nil {
		fatal("bad -classes", "err", err)
	}
	if *executors == "" {
		fatal("need -executors host:port[,host:port...]")
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("open input failed", "path", *in, "err", err)
		}
		defer f.Close()
		r = f
	}
	reader := twitterdata.NewReader(r)
	var src engine.Source = reader
	if *rate > 0 {
		src = engine.NewRateLimitedSource(src, *rate)
	}

	var tracer *obs.Tracer
	if *trace {
		tracer = obs.New(obs.Config{
			SlowBudget: batchSlowBudget,
			Registry:   metrics.Default(),
		})
	}
	p := core.NewPipeline(opts)
	if *debugAddr != "" {
		obs.RegisterRuntimeGauges(metrics.Default())
		core.RegisterMetrics(metrics.Default(), p)
		ln, stopDebug, err := obs.StartDebugServer(*debugAddr, tracer)
		if err != nil {
			fatal("debug listener failed", "addr", *debugAddr, "err", err)
		}
		defer stopDebug()
		logger.Info("debug server listening", "addr", ln.Addr().String(), "trace", *trace)
	}

	execList := strings.Split(*executors, ",")
	logger.Info("starting cluster run",
		"executors", len(execList), "model", opts.Model.String(), "scheme", opts.Scheme.String(),
		"batch", *batch, "tasks", *tasks, "trace", *trace)
	stats, err := engine.RunCluster(p, src, engine.ClusterConfig{
		Executors:        execList,
		BatchSize:        *batch,
		TasksPerExecutor: *tasks,
		Tracer:           tracer,
	})
	if err != nil {
		fatal("cluster run failed", "err", err)
	}

	rep := p.Summary()
	fmt.Printf("processed %d tweets in %.2fs (%.0f tweets/s) over %d batches, %d malformed lines skipped\n",
		stats.Processed, stats.Duration.Seconds(), stats.Throughput(), stats.Batches, reader.Malformed())
	fmt.Printf("batch latency: mean %s, max %s\n", stats.MeanBatchLatency, stats.MaxBatchLatency)
	fmt.Printf("broadcast: %.1f KB total (%.2f KB/batch), data: %.1f KB\n",
		float64(stats.BroadcastBytes)/1024, float64(stats.BroadcastBytes)/1024/float64(max(stats.Batches, 1)),
		float64(stats.DataBytes)/1024)
	fmt.Printf("resilience: %d failovers, %d reconnects\n", stats.Failovers, stats.Reconnects)
	if opts.Model == core.ModelARF {
		fmt.Printf("drift: %d warnings, %d drifts, %d tree replacements\n",
			stats.Warnings, stats.Drifts, stats.TreeReplacements)
	}
	fmt.Printf("alerts raised: %d\n", p.Alerter().Raised())
	fmt.Printf("user state: %d active users (%d evicted), %d session verdicts, %d escalations\n",
		stats.ActiveUsers, stats.UserEvictions,
		p.Users().SessionVerdicts(), p.Users().Escalations())
	if rep.Instances > 0 {
		fmt.Printf("prequential: accuracy=%.4f precision=%.4f recall=%.4f F1=%.4f\n",
			rep.Accuracy, rep.Precision, rep.Recall, rep.F1)
	}
	if tracer != nil {
		sum := tracer.Snapshot(0)
		fmt.Printf("trace: %d batch spans (%d slow, budget %s)\n",
			sum.Spans, sum.SlowSpans, time.Duration(sum.SlowBudgetNanos))
		for _, st := range sum.Stages {
			fmt.Printf("  %-16s p50=%-10s p95=%-10s p99=%s\n",
				st.Stage, obs.DurString(st.P50Nanos), obs.DurString(st.P95Nanos), obs.DurString(st.P99Nanos))
		}
	}
	if err := reader.Err(); err != nil {
		fatal("reading input failed", "path", *in, "err", err)
	}
}
