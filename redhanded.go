// Package redhanded is a real-time aggression detection framework for
// social media streams, reproducing "Catching them red-handed: Real-time
// Aggression Detection on Social Media" (Herodotou, Chatzakou, Kourtellis —
// ICDE 2021) as a pure-Go library.
//
// The framework embraces the streaming machine-learning paradigm: its
// classifiers (Hoeffding Tree, Adaptive Random Forest, Streaming Logistic
// Regression) update incrementally as labeled tweets arrive, so the model
// stays current as aggressive behavior evolves, while the full pipeline —
// preprocessing, feature extraction, normalization, training, prediction,
// alerting, evaluation, sampling — scales from a single goroutine to a
// multi-node micro-batch cluster over TCP.
//
// Quick start:
//
//	p := redhanded.NewPipeline(redhanded.DefaultOptions())
//	for tweet := range tweets {
//		res := p.Process(&tweet)
//		if res.Alerted {
//			// forward to moderators
//		}
//	}
//
// Complete programs live in the examples directory:
//
//   - examples/quickstart: train and evaluate on the synthetic dataset
//   - examples/moderation: alert handling and account suspension
//   - examples/firehose: sustained-throughput stream processing
//   - examples/driftwatch: concept-drift detection over the stream
//   - examples/relatedbehaviors: sarcasm and offensive-language datasets
//   - examples/serving: the HTTP serving subsystem with live SSE alerts
//   - examples/repeatoffender: the bounded per-user state store catching
//     repeat offenders (sessions, escalation, suspension, eviction)
//
// See DESIGN.md for the architecture.
package redhanded

import (
	"redhanded/internal/core"
	"redhanded/internal/engine"
	"redhanded/internal/eval"
	"redhanded/internal/serve"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// Pipeline is the end-to-end detection pipeline (Fig. 1 of the paper).
type Pipeline = core.Pipeline

// Options configures a Pipeline.
type Options = core.Options

// Result reports what the pipeline did with one tweet.
type Result = core.Result

// Alert is raised when a tweet is predicted aggressive with sufficient
// confidence.
type Alert = core.Alert

// AlertSink consumes alerts.
type AlertSink = core.AlertSink

// AlertSinkFunc adapts a function to AlertSink.
type AlertSinkFunc = core.AlertSinkFunc

// Report bundles accuracy, precision, recall, and F1.
type Report = eval.Report

// Class schemes: the 3-class problem distinguishes normal/abusive/hateful;
// the 2-class problem merges abusive and hateful into "aggressive".
const (
	ThreeClass = core.ThreeClass
	TwoClass   = core.TwoClass
)

// Streaming model kinds.
const (
	ModelHT  = core.ModelHT
	ModelARF = core.ModelARF
	ModelSLR = core.ModelSLR
)

// Tweet is the Twitter-API-shaped stream element.
type Tweet = twitterdata.Tweet

// User is a tweet's author profile.
type User = twitterdata.User

// Dataset labels.
const (
	LabelNormal  = twitterdata.LabelNormal
	LabelAbusive = twitterdata.LabelAbusive
	LabelHateful = twitterdata.LabelHateful
)

// NewPipeline assembles the detection framework.
//
// Every model kind (HT, ARF, SLR) supports Checkpoint/Restore for
// surviving restarts without losing the incrementally learned state, and
// runs on every engine, the TCP cluster included.
func NewPipeline(opts Options) *Pipeline { return core.NewPipeline(opts) }

// Per-user state: every Pipeline owns a sharded, memory-bounded,
// checkpointable userstate.Store that unifies session windows, offense
// histories, and escalation scoring. Session-level detection (the
// paper's future-work windowing extension) is configured through
// Options.Users.Session and reported on Result.Session.
type (
	// SessionConfig tunes per-user sliding windows (Options.Users.Session).
	SessionConfig = core.SessionConfig
	// SessionVerdict is one flagged user window.
	SessionVerdict = core.SessionVerdict
	// EscalationVerdict flags a user trending toward aggression across
	// sessions, not just within one window.
	EscalationVerdict = core.EscalationVerdict
	// UserStateConfig bounds and tunes the per-user state store
	// (Options.Users): shard count, record cap, idle TTL, escalation
	// scoring.
	UserStateConfig = userstate.Config
	// VerdictSink consumes session and escalation verdicts
	// (Pipeline.SubscribeVerdicts).
	VerdictSink = core.VerdictSink
)

// DefaultOptions returns the configuration of the paper's main
// experiments: Hoeffding Tree, 3-class, preprocessing, minmax-without-
// outliers normalization, and the adaptive bag-of-words all enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// Execution engines (§V-E of the paper).
type (
	// Source yields a stream of tweets.
	Source = engine.Source
	// EngineStats summarises one engine run.
	EngineStats = engine.Stats
	// MicroBatchConfig configures the Spark-Streaming-style engine.
	MicroBatchConfig = engine.MicroBatchConfig
	// ClusterConfig configures the multi-node TCP engine.
	ClusterConfig = engine.ClusterConfig
	// Executor is one cluster node.
	Executor = engine.Executor
)

// NewSliceSource streams a dataset slice.
func NewSliceSource(tweets []Tweet) Source { return engine.NewSliceSource(tweets) }

// RunSequential processes the stream one tweet at a time (the MOA model).
func RunSequential(p *Pipeline, src Source) EngineStats {
	return engine.RunSequential(p, src)
}

// RunMicroBatch processes the stream with micro-batch parallelism.
func RunMicroBatch(p *Pipeline, src Source, cfg MicroBatchConfig) (EngineStats, error) {
	return engine.RunMicroBatch(p, src, cfg)
}

// RunCluster processes the stream across TCP executor nodes.
func RunCluster(p *Pipeline, src Source, cfg ClusterConfig) (EngineStats, error) {
	return engine.RunCluster(p, src, cfg)
}

// StartExecutor launches a cluster node listening on addr.
func StartExecutor(addr string, workers int) (*Executor, error) {
	return engine.StartExecutor(addr, workers)
}

// SparkSingleConfig mimics single-threaded Spark execution.
func SparkSingleConfig() MicroBatchConfig { return engine.SparkSingleConfig() }

// SparkLocalConfig mimics one multi-threaded Spark worker.
func SparkLocalConfig(cores int) MicroBatchConfig { return engine.SparkLocalConfig(cores) }

// Synthetic datasets (see DESIGN.md for the calibration to the paper's
// reported statistics).
type (
	// AggressionConfig sizes the synthetic aggression dataset.
	AggressionConfig = twitterdata.AggressionConfig
	// SarcasmConfig sizes the synthetic sarcasm dataset.
	SarcasmConfig = twitterdata.SarcasmConfig
	// OffensiveConfig sizes the synthetic racism/sexism dataset.
	OffensiveConfig = twitterdata.OffensiveConfig
)

// GenerateAggression produces the labeled aggression dataset.
func GenerateAggression(cfg AggressionConfig) []Tweet {
	return twitterdata.GenerateAggression(cfg)
}

// DefaultAggressionConfig mirrors the paper's 86k dataset (53,835 normal,
// 27,179 abusive, 4,970 hateful over 10 days).
func DefaultAggressionConfig() AggressionConfig {
	return twitterdata.DefaultAggressionConfig()
}

// GenerateSarcasm produces the sarcasm dataset of §V-F.
func GenerateSarcasm(cfg SarcasmConfig) []Tweet { return twitterdata.GenerateSarcasm(cfg) }

// GenerateOffensive produces the racism/sexism dataset of §V-F.
func GenerateOffensive(cfg OffensiveConfig) []Tweet { return twitterdata.GenerateOffensive(cfg) }

// Real-time serving subsystem: a sharded HTTP front end over the pipeline
// with bounded-queue backpressure, SSE alert streaming, and
// Prometheus-format metrics (see internal/serve and cmd/aggroserve).
type (
	// Server is the sharded HTTP ingestion server. It implements
	// http.Handler; pass it to http.Server or httptest directly.
	Server = serve.Server
	// ServerOptions configures a Server.
	ServerOptions = serve.Options
	// ServerStats is the GET /v1/stats payload.
	ServerStats = serve.Stats
)

// NewServer builds the sharded serving front end and starts its shard
// goroutines. Tweets are routed to shards by hash(userID) % shards so
// per-user state keeps affinity.
func NewServer(opts ServerOptions) *Server { return serve.NewServer(opts) }

// DefaultServerOptions returns the paper-default pipeline behind 4 shards.
func DefaultServerOptions() ServerOptions { return serve.DefaultServerOptions() }
