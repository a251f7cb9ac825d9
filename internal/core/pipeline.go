package core

import (
	"sync"
	"time"

	"redhanded/internal/eval"
	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/norm"
	"redhanded/internal/obs"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// Result reports what the pipeline did with one tweet.
//
// Instance.X and Prediction alias storage the pipeline owns and reuses: they
// are valid until the pipeline's next Process, ProcessBatch or ProcessAll
// call, like the slice bufio.Scanner.Bytes returns. A caller that keeps
// either past that point copies it.
type Result struct {
	Instance   ml.Instance
	Prediction ml.Prediction
	Predicted  int
	Confidence float64
	Alerted    bool
	// Tested is true for labeled tweets that entered the prequential
	// evaluation (and then trained the model).
	Tested bool
	// Session / Escalation carry the user-state verdicts this tweet
	// triggered (nil for the vast majority of tweets).
	Session    *SessionVerdict
	Escalation *EscalationVerdict
}

// VerdictSink consumes the user-state verdicts the pipeline emits:
// session verdicts (repetitive hostility within a sliding window) and
// escalation verdicts (a user trending toward aggression across
// sessions). Sinks run on the processing goroutine and must not block.
type VerdictSink interface {
	HandleSession(SessionVerdict)
	HandleEscalation(EscalationVerdict)
}

// Model is what a Pipeline runs: a streaming classifier that serializes
// (checkpoints, cluster broadcast, remote accumulator deltas) and compiles
// into the stream.Compiled form the classify step reads. Both
// are part of the type, so checkpointing and every engine work for any
// model a pipeline can hold.
type Model = stream.Model

// Pipeline is the detection framework of Fig. 1: one per-tweet dataflow,
// preprocess → extract → normalize → predict/train → alert → evaluate →
// sample. ProcessBatch is its one implementation; Process and ProcessAll
// are a batch of one and a chunker over it. The micro-batch and cluster
// engines compute extract/normalize/predict and the training deltas in
// their own share kernel over the pipeline's components (Extractor,
// Normalizer, Model), merge the statistics deltas, and hand each classified
// batch and its model accumulators back through AbsorbBatch, which applies
// the accumulators and the same effects section.
//
// A Pipeline supports one processing goroutine, and its lock is the only
// lock on the state it owns: the extractor (cache and BoW), the user-state
// store, the alerter and the sampler keep none of their own. The read
// accessors (Processed, Counts, LookupUser, Summary, BoWSizeCurve,
// PredictedDistribution, LogOffset, SnapshotStats, Checkpoint) take that
// lock, so the serving layer can report live statistics while a shard
// runs. The component accessors (Extractor, Users, Alerter, Sampler,
// Model, Normalizer, Evaluator) hand out the unlocked components: they are
// for setup and for the goroutine that drives the pipeline, never for a
// reader racing it. Engines partition work across pipelines instead of
// sharing one.
type Pipeline struct {
	opts       Options
	classes    ml.Classes
	extractor  *feature.Extractor
	normalizer *norm.Normalizer
	model      Model
	evaluator  *eval.Prequential
	alerter    *Alerter
	users      *userstate.Store
	verdicts   []VerdictSink
	sampler    *BoostedSampler
	bowSizes   []eval.Point // Fig. 10 series
	processed  int64

	// logOffset is the ingest-log offset of the last Logged entry applied
	// (-1 when nothing log-backed has been processed). Updated under mu in
	// the same critical section as the tweet's effects, so a checkpoint
	// always captures model state and applied offset as one consistent
	// cut — the invariant exactly-once replay rests on.
	logOffset int64

	// Distribution of predicted labels over unlabeled traffic (the
	// evaluation step's "interesting statistics").
	predCounts []int64

	// compiled is the model's compiled form (stream.Compiled), owned by
	// the model and the form the classify step predicts from. It is
	// compiled in place under mu at the end of every entry that moved the
	// model's epoch, so at every predict it is bit-for-bit the live model;
	// like the model, it is read only under mu.
	compiled     *stream.Compiled
	snapRebuilds int64 // compiles
	snapTrees    int64 // member trees re-compiled across all compiles

	// classifyScratch backs the zero-alloc PredictInto calls; raw is the
	// entry's raw feature vector; xArena and voteArena hold every Result's
	// normalized vector and votes, one stride per entry of the current
	// ProcessBatch call, and grow but never shrink. oneHot is AbsorbBatch's
	// prediction for the sampler. Only the processing goroutine touches them.
	classifyScratch []float64
	raw             feature.Vec
	xArena          []float64
	voteArena       []float64
	oneHot          ml.Prediction

	// mu serializes processing and every reader. lockWaits and lockWaited
	// count the ProcessBatch and AbsorbBatch acquires that found it held
	// and the time they spent blocked; they are written and read under mu.
	mu         sync.Mutex
	lockWaits  int64
	lockWaited time.Duration
}

// lock takes p.mu for processing, counting the acquire as a wait when a
// reader held it. A free lock costs one TryLock and no clock read.
func (p *Pipeline) lock() {
	if p.mu.TryLock() {
		return
	}
	t0 := time.Now()
	p.mu.Lock()
	p.lockWaited += time.Since(t0)
	p.lockWaits++
	//redvet:ignore lockorder lock returns holding p.mu by design; ProcessBatch and AbsorbBatch defer its unlock
}

// NewPipeline assembles the framework with the given options.
func NewPipeline(opts Options) *Pipeline {
	ext := feature.NewExtractor(feature.Config{Preprocess: opts.Preprocess, BoW: feature.BoWConfig{Frozen: !opts.AdaptiveBoW},
		CacheEntries: defaultFeatureCacheEntries})
	k := opts.Scheme.NumClasses()
	users := userstate.New(opts.Users)
	p := &Pipeline{
		opts:       opts,
		classes:    opts.Scheme.Classes(),
		extractor:  ext,
		normalizer: norm.NewNormalizer(opts.Normalization, feature.NumFeatures),
		model:      newModel(opts),
		evaluator:  eval.NewPrequential(k, opts.SampleStep),
		alerter:    newAlerter(opts.AlertThreshold, users),
		users:      users,
		sampler:    NewBoostedSampler(DefaultSamplerConfig(opts.Seed)),
		predCounts: make([]int64, k),
		logOffset:  -1,
	}
	p.compileLocked()
	p.classifyScratch = make([]float64, p.compiled.ScratchLen())
	p.oneHot = make(ml.Prediction, p.classes.Len())
	return p
}

// recompileLocked compiles the model in place if it moved since its last
// compile, which re-freezes only what changed (see
// stream.CompileSnapshot). Called with p.mu held. The compile cost is
// attributed to sp's StageCompile so a tweet that happened to pay for a
// compile shows it in its trace instead of an inflated classify stage.
func (p *Pipeline) recompileLocked(sp *obs.Span) {
	if p.compiled.Epoch() == p.model.Epoch() {
		return
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	p.compileLocked()
	if sp != nil {
		sp.AddExclusive(obs.StageCompile, time.Since(start))
	}
}

// compileLocked brings the model's compiled form up to date and counts
// the compile. Called with p.mu held, or before p is shared.
func (p *Pipeline) compileLocked() {
	p.compiled = p.model.CompileSnapshot(nil)
	p.snapRebuilds++
	p.snapTrees += int64(p.compiled.Rebuilt())
}

// SnapshotStats is the compiled-snapshot telemetry surfaced on /v1/stats
// and /metrics.
type SnapshotStats struct {
	// Enabled is always true: every model classifies through its compiled
	// snapshot. The field stays for /v1/stats consumers.
	Enabled bool `json:"enabled"`
	// Epoch is the model epoch the compiled form was compiled at.
	Epoch uint64 `json:"epoch"`
	// ModelEpoch is the live model's current epoch; Age = ModelEpoch -
	// Epoch is the number of model mutations the compiled form is behind
	// (0 = fresh; the pipeline compiles at the end of every entry and
	// every AbsorbBatch, so a reader never sees a nonzero age between
	// calls).
	ModelEpoch uint64 `json:"model_epoch"`
	Age        uint64 `json:"age"`
	// Rebuilds counts compiles; TreesRebuilt sums the member trees each
	// changed (the saving of leaving unchanged members alone is visible as
	// TreesRebuilt growing slower than Rebuilds × ensemble size).
	Rebuilds     int64 `json:"rebuilds"`
	TreesRebuilt int64 `json:"trees_rebuilt"`
	// Trees / Nodes describe the compiled form's size.
	Trees int `json:"trees"`
	Nodes int `json:"nodes"`
}

// SnapshotStats reports the compiled-snapshot telemetry.
func (p *Pipeline) SnapshotStats() SnapshotStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotStatsLocked()
}

func (p *Pipeline) snapshotStatsLocked() SnapshotStats {
	st := SnapshotStats{
		Enabled:      true,
		Epoch:        p.compiled.Epoch(),
		ModelEpoch:   p.model.Epoch(),
		Rebuilds:     p.snapRebuilds,
		TreesRebuilt: p.snapTrees,
		Trees:        p.compiled.NumTrees(),
		Nodes:        p.compiled.NumNodes(),
	}
	if st.ModelEpoch >= st.Epoch {
		st.Age = st.ModelEpoch - st.Epoch
	}
	return st
}

// Options returns the pipeline configuration.
func (p *Pipeline) Options() Options { return p.opts }

// Classes returns the class domain.
func (p *Pipeline) Classes() ml.Classes { return p.classes }

// Model exposes the streaming classifier (engines need its accumulators).
func (p *Pipeline) Model() Model { return p.model }

// Extractor exposes the feature extractor.
func (p *Pipeline) Extractor() *feature.Extractor { return p.extractor }

// Normalizer exposes the streaming normalizer.
func (p *Pipeline) Normalizer() *norm.Normalizer { return p.normalizer }

// Evaluator exposes the prequential evaluator.
func (p *Pipeline) Evaluator() *eval.Prequential { return p.evaluator }

// Alerter exposes the alerting component.
func (p *Pipeline) Alerter() *Alerter { return p.alerter }

// Users exposes the per-user state store (session windows, offense
// history, escalation scores) to setup and to the goroutine that drives
// the pipeline. A reader racing processing uses LookupUser and Counts.
func (p *Pipeline) Users() *userstate.Store { return p.users }

// LookupUser returns one user's state under the pipeline's lock (GET
// /v1/users/{id}).
func (p *Pipeline) LookupUser(id string) (userstate.Snapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.users.Lookup(id)
}

// Counts is one consistent cut of a pipeline's running counts: the
// per-shard figures /v1/stats and /metrics show, the model's drift
// telemetry and the prequential report included, read under one
// acquisition of the pipeline's lock. It is the only read the serving
// layer makes of a running pipeline.
type Counts struct {
	Processed       int64
	LogOffset       int64 // see LogOffset
	AlertsRaised    int64
	ActiveUsers     int
	EvictionsCap    int64 // user records evicted by the cap
	EvictionsTTL    int64 // and by the idle sweep
	SessionVerdicts int64
	Escalations     int64
	Suspensions     int64
	Cache           feature.CacheStats
	Snapshot        SnapshotStats
	// LockWaits counts the processing acquires that found the pipeline's
	// lock held by a reader, LockWaited the time they blocked. Unlike the
	// counts above they are not checkpointed: they describe this
	// process's contention.
	LockWaits  int64
	LockWaited time.Duration
	// Drift is the model's drift telemetry, nil for models without drift
	// detectors (stream.DriftReporter).
	Drift *stream.DriftStats
	// Report is the prequential evaluation so far (Summary).
	Report eval.Report
}

// Counts reads the pipeline's counts under its lock, in O(1) of the
// traffic seen.
func (p *Pipeline) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	capEv, ttlEv := p.users.Evictions()
	c := Counts{
		Processed:       p.processed,
		LogOffset:       p.logOffset,
		AlertsRaised:    p.alerter.Raised(),
		ActiveUsers:     p.users.Len(),
		EvictionsCap:    capEv,
		EvictionsTTL:    ttlEv,
		SessionVerdicts: p.users.SessionVerdicts(),
		Escalations:     p.users.Escalations(),
		Suspensions:     p.users.Suspensions(),
		Cache:           p.extractor.CacheStats(),
		Snapshot:        p.snapshotStatsLocked(),
		LockWaits:       p.lockWaits,
		LockWaited:      p.lockWaited,
		Report:          p.evaluator.Summary(),
	}
	if dr, ok := p.model.(stream.DriftReporter); ok {
		st := dr.DriftStats()
		c.Drift = &st
	}
	return c
}

// SubscribeVerdicts registers a sink for session and escalation
// verdicts. Sinks run on the processing goroutine and must not block.
func (p *Pipeline) SubscribeVerdicts(s VerdictSink) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.verdicts = append(p.verdicts, s)
}

// observeUser decides whether a tweet predicted as class pred raises an
// alert, folds the prediction — and the alert's offense, when it does —
// into the user-state store in one call, and fans the verdicts out to the
// verdict sinks. Any non-normal class is aggressive behavior. Called with
// p.mu held. The span (nil when tracing is off) separates the store fold
// (StageObserve) from the sink fan-out (StageVerdict).
func (p *Pipeline) observeUser(tw *twitterdata.Tweet, pred int, confidence float64, sp *obs.Span) (out userstate.Outcome, alert bool) {
	aggressive := pred > 0
	suspendAfter := 0
	if aggressive {
		suspendAfter, alert = p.alerter.arm(confidence)
	}
	if tw.User.IDStr == "" {
		return out, alert
	}
	sp.BeginStage(obs.StageObserve)
	o := userstate.Observation{
		UserID:       tw.User.IDStr,
		ScreenName:   tw.User.ScreenName,
		At:           tw.PostedAt(),
		Aggressive:   aggressive,
		Confidence:   confidence,
		SuspendAfter: suspendAfter,
	}
	if alert {
		out = p.users.ObserveAlert(o)
	} else {
		out = p.users.Observe(o)
	}
	sp.BeginStage(obs.StageVerdict)
	if out.Session != nil || out.Escalation != nil {
		sp.BeginStage(obs.StageEmit) // the sinks' publish time, apart from the verdict's
		for _, s := range p.verdicts {
			if out.Session != nil {
				s.HandleSession(*out.Session)
			}
			if out.Escalation != nil {
				s.HandleEscalation(*out.Escalation)
			}
		}
		sp.BeginStage(obs.StageVerdict)
	}
	return out, alert
}

// Sampler exposes the boosted sampling component.
func (p *Pipeline) Sampler() *BoostedSampler { return p.sampler }

// Processed returns the number of tweets processed.
func (p *Pipeline) Processed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed
}

// BoWSizeCurve returns (instances, BoW size) points sampled at the
// evaluator's cadence — the series of Fig. 10.
func (p *Pipeline) BoWSizeCurve() []eval.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]eval.Point(nil), p.bowSizes...)
}

// PredictedDistribution returns the share of each predicted class over the
// unlabeled traffic processed so far.
func (p *Pipeline) PredictedDistribution() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := int64(0)
	for _, c := range p.predCounts {
		total += c
	}
	out := make([]float64, len(p.predCounts))
	if total == 0 {
		return out
	}
	for i, c := range p.predCounts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// LogOffset returns the ingest-log offset of the last Logged entry
// applied, or -1. After Checkpoint, replaying offsets (LogOffset, end]
// reproduces the uninterrupted run.
func (p *Pipeline) LogOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logOffset
}

// BatchEntry is one tweet of a ProcessBatch call. Span may be nil (tracing
// off). Offset is the tweet's ingest-log offset, recorded when Logged is
// true; entries must carry offsets in order — the caller (a serve shard,
// which owns its log partition) guarantees that.
type BatchEntry struct {
	Tweet  *twitterdata.Tweet
	Span   *obs.Span
	Offset int64
	Logged bool
}

// labelOf resolves a tweet to the class index its instance will carry
// (ml.Unlabeled for unlabeled tweets and unknown label strings): an entry
// trains the model iff labelOf >= 0, exactly mirroring Instance.IsLabeled.
func (p *Pipeline) labelOf(tw *twitterdata.Tweet) int {
	if tw.IsLabeled() {
		return p.opts.Scheme.LabelIndex(tw.Label)
	}
	return ml.Unlabeled
}

// Process runs one tweet through the pipeline: a batch of one, over
// scratch on the caller's stack.
func (p *Pipeline) Process(tw *twitterdata.Tweet) Result {
	entry := [1]BatchEntry{{Tweet: tw}}
	var result [1]Result
	return p.ProcessBatch(entry[:], result[:0])[0]
}

// ProcessBatch runs tweets through the full pipeline — extract, normalize,
// predict, then for labeled tweets evaluate prequentially and train, and
// for all tweets user-state fold, alerting and sampling — appending one
// Result per entry to results (pass results[:0] to reuse backing storage)
// and returning the extended slice. Each Result's Instance.X and Prediction
// point into two pipeline-owned arenas of len(entries) strides, valid until
// the next Process, ProcessBatch or ProcessAll call (see Result); no model
// or accumulator retains X, so the batch allocates neither.
//
// The batch is one critical section that takes the entries one at a time,
// in order, each exactly as the reference does: look up or extract (a
// labeled entry that misses the cache keeps its scan for the BoW's learn),
// fold and scale, predict from the compiled form, train when labeled,
// apply the effects, record the log offset, and recompile if the model
// moved. Readers of the pipeline therefore see it only between batches,
// and the compiled form is current at every predict.
//
// A tweet's stages are the same alone and mid-batch: cache, extract (on a
// miss, a labeled entry's scan included, plus the normalizer fold),
// classify (plus record, train and learn when labeled), observe (an alert's
// offense included), verdict, and compile for the entry that paid for a
// compile.
func (p *Pipeline) ProcessBatch(entries []BatchEntry, results []Result) []Result {
	k := p.classes.Len()
	if need := len(entries) * feature.NumFeatures; len(p.xArena) < need {
		p.xArena = make([]float64, need)
	}
	if need := len(entries) * k; len(p.voteArena) < need {
		p.voteArena = make([]float64, need)
	}
	p.lock()
	defer p.mu.Unlock()
	raw := &p.raw
	for j, e := range entries {
		tw, sp := e.Tweet, e.Span
		in := ml.Instance{X: stride(p.xArena, j, feature.NumFeatures), Label: p.labelOf(tw), Weight: 1, ID: tw.IDStr, Day: tw.Day}
		var scan *feature.Scan // a labeled miss's, for absorb's learn
		sp.BeginStage(obs.StageCache)
		if key, hit := p.extractor.Lookup(raw[:], tw); !hit {
			sp.BeginStage(obs.StageExtract)
			if in.IsLabeled() {
				scan = p.extractor.ExtractAndKeepScan(raw, tw, key)
			} else {
				p.extractor.ExtractAndCache(raw[:], tw, key)
			}
		}
		sp.BeginStage(obs.StageExtract)
		p.normalizer.Observe(raw[:])
		p.normalizer.Normalize(raw[:], in.X)

		v := ml.Prediction(stride(p.voteArena, j, k))
		sp.BeginStage(obs.StageClassify)
		p.compiled.PredictInto(v, p.classifyScratch, in.X)
		if in.IsLabeled() {
			p.model.Train(in)
		} else {
			sp.EndStage()
		}
		results = append(results, Result{Instance: in, Prediction: v, Predicted: v.ArgMax(), Confidence: v.Confidence()})
		p.absorb(tw, &results[len(results)-1], sp, scan)
		if e.Logged {
			p.logOffset = e.Offset
		}
		sp.EndStage()
		p.recompileLocked(sp)
	}
	return results
}

// stride returns element i of a flat arena of width-w elements, capped so
// that an append cannot spill into element i+1.
func stride(arena []float64, i, w int) []float64 { return arena[i*w:][:w:w] }

// absorb applies everything a classified tweet does to the pipeline apart
// from training the model: prequential record + adaptive-BoW learning
// (labeled; from scan when extraction kept it, else by scanning the text)
// or distribution counts + sampling (unlabeled), then the user-state fold,
// verdict fan-out, alerting, and bookkeeping. Called with p.mu held;
// leaves the verdict stage open.
func (p *Pipeline) absorb(tw *twitterdata.Tweet, res *Result, sp *obs.Span, scan *feature.Scan) {
	pred := res.Predicted
	if res.Instance.IsLabeled() {
		p.evaluator.Record(res.Instance.Label, pred)
		p.extractor.LearnScan(tw, scan)
		res.Tested = true
	} else {
		if pred >= 0 && pred < len(p.predCounts) {
			p.predCounts[pred]++
		}
		p.sampler.Offer(tw, res.Prediction)
	}

	out, alert := p.observeUser(tw, pred, res.Confidence, sp)
	res.Session, res.Escalation = out.Session, out.Escalation
	sp.BeginStage(obs.StageVerdict) // no-op unless observeUser skipped (no user ID)
	if alert {
		sp.BeginStage(obs.StageEmit)
		p.alerter.raise(tw, p.classes.Name(pred), res.Confidence, out)
		sp.BeginStage(obs.StageVerdict)
		res.Alerted = true
	}

	p.processed++
	if p.opts.SampleStep > 0 && p.processed%p.opts.SampleStep == 0 {
		p.bowSizes = append(p.bowSizes, eval.Point{
			Instances: p.processed,
			Value:     float64(p.extractor.BoW().Size()),
		})
	}
}

// processAllBatch is the ProcessAll chunk size: large enough that the
// one lock per batch amortizes, small enough that the result arenas stay
// cache-resident.
const processAllBatch = 256

// ProcessAll streams a dataset through ProcessBatch in chunks.
func (p *Pipeline) ProcessAll(tweets []twitterdata.Tweet) {
	entries := make([]BatchEntry, 0, processAllBatch)
	results := make([]Result, 0, processAllBatch)
	for i := 0; i < len(tweets); i += processAllBatch {
		j := i + processAllBatch
		if j > len(tweets) {
			j = len(tweets)
		}
		entries = entries[:0]
		for k := i; k < j; k++ {
			entries = append(entries, BatchEntry{Tweet: &tweets[k]})
		}
		results = p.ProcessBatch(entries, results[:0])
	}
}

// Outcome is the per-tweet result computed by a parallel engine task:
// the class index (or ml.Unlabeled), the prediction, and its confidence.
type Outcome struct {
	Label int
	Pred  int
	Conf  float64
}

// AbsorbBatch applies one micro-batch an engine classified and trained on
// in parallel, all under the lock, so the pipeline's readers may run
// alongside an engine: the normalizer deltas and then the model
// accumulators, each in order, then each tweet's effects; outcomes[i]
// corresponds to tweets[i].
func (p *Pipeline) AbsorbBatch(deltas []*norm.FeatureStats, accs []ml.Accumulator, tweets []twitterdata.Tweet, outcomes []Outcome) {
	p.lock()
	defer p.mu.Unlock()
	for _, d := range deltas {
		p.normalizer.Stats.Merge(d)
	}
	p.model.ApplyAccumulators(accs)
	for i := range tweets {
		o := outcomes[i]
		res := Result{Instance: ml.Instance{Label: o.Label}, Predicted: o.Pred, Confidence: o.Conf}
		if o.Label < 0 {
			// Tasks ship the winning class, not the votes; the sampler
			// reads only the ArgMax of a one-hot prediction.
			clear(p.oneHot)
			if o.Pred >= 0 && o.Pred < len(p.oneHot) {
				p.oneHot[o.Pred] = 1
			}
			res.Prediction = p.oneHot
		}
		p.absorb(&tweets[i], &res, nil, nil)
	}
	// Recompile so the compiled form catches up with the merged accumulators.
	p.recompileLocked(nil)
}

// Summary returns the cumulative evaluation metrics.
func (p *Pipeline) Summary() eval.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evaluator.Summary()
}
