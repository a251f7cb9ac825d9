package core

import (
	"sync"
	"sync/atomic"
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

// Pipeline is the sequential reference implementation of the detection
// framework (Fig. 1). The distributed engines reuse its components
// (Extractor, Normalizer, Model) with parallel tasks; their results are
// equivalent by the merge semantics of each component.
//
// Pipeline is not safe for concurrent use; engines coordinate access.
type Pipeline struct {
	opts       Options
	classes    ml.Classes
	extractor  *feature.Extractor
	normalizer *norm.Normalizer
	model      ml.DistributedClassifier
	evaluator  *eval.Prequential
	alerter    *Alerter
	users      *userstate.Store
	verdicts   []VerdictSink
	sampler    *BoostedSampler
	bowSizes   []eval.Point // Fig. 10 series
	processed  int64

	// logOffset is the ingest-log offset of the last tweet applied via
	// ProcessLogged (-1 when nothing log-backed has been processed).
	// Updated under mu in the same critical section as the tweet's
	// effects, so a checkpoint always captures model state and applied
	// offset as one consistent cut — the invariant exactly-once replay
	// rests on.
	logOffset int64

	// Distribution of predicted labels over unlabeled traffic (the
	// evaluation step's "interesting statistics").
	predCounts []int64

	// snapshot is the RCU-published compiled form of the model: an
	// immutable, pointer-free flattening (see stream.Compiled) that the
	// classify step reads without taking mu. It is nil when the model is
	// not stream.Compilable or snapshots are disabled; otherwise it is
	// re-published under mu whenever the model's epoch moves, so at every
	// predict the snapshot is bit-for-bit the live model.
	snapshot     atomic.Pointer[stream.Compiled]
	snapRebuilds atomic.Int64 // snapshot publications that re-flattened something
	snapTrees    atomic.Int64 // member trees re-flattened across all rebuilds

	// classifyScratch backs the zero-alloc PredictInto calls. Only the
	// processing goroutine touches it (Pipeline supports one processor).
	classifyScratch []float64

	// batchRaws / batchXs are ProcessBatch working storage, reused across
	// batches on the processing goroutine.
	batchRaws []*feature.Vec
	batchXs   [][]float64

	// activeSpan is the span of the tweet currently inside its mutation /
	// verdict fan-out section (guarded by mu; nil between tweets). Verdict
	// sinks run synchronously inside that section, so a sink can attribute
	// its cost to the right span even on the batched path, where the
	// shard-level "current span" is ambiguous.
	activeSpan *obs.Span

	mu sync.Mutex
}

// NewPipeline assembles the framework with the given options.
func NewPipeline(opts Options) *Pipeline {
	bowCfg := feature.DefaultBoWConfig()
	bowCfg.Frozen = !opts.AdaptiveBoW
	cacheEntries := opts.FeatureCacheEntries
	switch {
	case cacheEntries == 0:
		cacheEntries = defaultFeatureCacheEntries
	case cacheEntries < 0:
		cacheEntries = 0
	}
	ext := feature.NewExtractor(feature.Config{Preprocess: opts.Preprocess, BoW: bowCfg, CacheEntries: cacheEntries})
	k := opts.Scheme.NumClasses()
	users := userstate.New(opts.Users)
	p := &Pipeline{
		opts:       opts,
		classes:    opts.Scheme.Classes(),
		extractor:  ext,
		normalizer: norm.NewNormalizer(opts.Normalization, feature.NumFeatures),
		model:      newModel(opts),
		evaluator:  eval.NewPrequential(k, opts.SampleStep),
		alerter:    newAlerterWith(opts.AlertThreshold, users),
		users:      users,
		sampler:    NewBoostedSampler(DefaultSamplerConfig(opts.Seed)),
		predCounts: make([]int64, k),
		logOffset:  -1,
	}
	p.initSnapshot()
	return p
}

// initSnapshot publishes the first compiled snapshot when the model
// supports compilation and snapshots are enabled; otherwise the pipeline
// stays on the fully locked path for its lifetime (snapshot == nil).
func (p *Pipeline) initSnapshot() {
	if p.opts.DisableCompiledSnapshots {
		return
	}
	cm, ok := p.model.(stream.Compilable)
	if !ok {
		return
	}
	snap := cm.CompileSnapshot(nil)
	p.snapshot.Store(snap)
	p.snapRebuilds.Add(1)
	p.snapTrees.Add(int64(snap.Rebuilt()))
	p.classifyScratch = make([]float64, snap.ScratchLen())
}

// refreshSnapshotLocked re-publishes the compiled snapshot if the model
// mutated since the last publication, reusing every unchanged member
// tree and, inside a trained tree that did not split, every untouched
// leaf (see stream.CompileSnapshot).
// Called with p.mu held; returns the current snapshot (nil when the
// compiled path is off). The compile cost is attributed to sp's
// StageCompile so a tweet that happened to pay for a rebuild shows it
// in its trace instead of an inflated classify stage.
func (p *Pipeline) refreshSnapshotLocked(sp *obs.Span) *stream.Compiled {
	snap := p.snapshot.Load()
	if snap == nil {
		return nil
	}
	cm := p.model.(stream.Compilable)
	if snap.Epoch() == cm.Epoch() {
		return snap
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	next := cm.CompileSnapshot(snap)
	p.snapshot.Store(next)
	p.snapRebuilds.Add(1)
	p.snapTrees.Add(int64(next.Rebuilt()))
	if sp != nil {
		sp.AddExclusive(obs.StageCompile, time.Since(start))
	}
	return next
}

// SnapshotStats is the compiled-snapshot telemetry surfaced on /v1/stats
// and /metrics.
type SnapshotStats struct {
	// Enabled reports whether the lock-free compiled classify path is on.
	Enabled bool `json:"enabled"`
	// Epoch is the model epoch the published snapshot was compiled at.
	Epoch uint64 `json:"epoch"`
	// ModelEpoch is the live model's current epoch; Age = ModelEpoch -
	// Epoch is the number of model mutations the snapshot is behind
	// (0 = fresh; the pipeline re-publishes before every classify and at
	// the end of every mutation section, so a nonzero age is transient).
	ModelEpoch uint64 `json:"model_epoch"`
	Age        uint64 `json:"age"`
	// Rebuilds counts snapshot publications; TreesRebuilt sums the member
	// trees actually re-flattened across them (the incremental-rebuild
	// saving is visible as TreesRebuilt growing slower than
	// Rebuilds × ensemble size).
	Rebuilds     int64 `json:"rebuilds"`
	TreesRebuilt int64 `json:"trees_rebuilt"`
	// Trees / Nodes describe the published snapshot's size.
	Trees int `json:"trees"`
	Nodes int `json:"nodes"`
}

// SnapshotStats reports the compiled-snapshot telemetry (zero value when
// the compiled path is off).
func (p *Pipeline) SnapshotStats() SnapshotStats {
	snap := p.snapshot.Load()
	if snap == nil {
		return SnapshotStats{}
	}
	st := SnapshotStats{
		Enabled:      true,
		Epoch:        snap.Epoch(),
		Rebuilds:     p.snapRebuilds.Load(),
		TreesRebuilt: p.snapTrees.Load(),
		Trees:        snap.NumTrees(),
		Nodes:        snap.NumNodes(),
	}
	p.mu.Lock()
	st.ModelEpoch = p.model.(stream.Compilable).Epoch()
	p.mu.Unlock()
	if st.ModelEpoch >= st.Epoch {
		st.Age = st.ModelEpoch - st.Epoch
	}
	return st
}

// ActiveSpan returns the span of the tweet currently inside its
// mutation/fan-out section, or nil. Verdict sinks run synchronously on
// the processing goroutine within that section (which holds p.mu), so a
// sink may call this to attribute emit cost to the triggering tweet.
func (p *Pipeline) ActiveSpan() *obs.Span { return p.activeSpan }

// Options returns the pipeline configuration.
func (p *Pipeline) Options() Options { return p.opts }

// Classes returns the class domain.
func (p *Pipeline) Classes() ml.Classes { return p.classes }

// Model exposes the streaming classifier (engines need its accumulators).
func (p *Pipeline) Model() ml.DistributedClassifier { return p.model }

// Extractor exposes the feature extractor.
func (p *Pipeline) Extractor() *feature.Extractor { return p.extractor }

// Normalizer exposes the streaming normalizer.
func (p *Pipeline) Normalizer() *norm.Normalizer { return p.normalizer }

// Evaluator exposes the prequential evaluator.
func (p *Pipeline) Evaluator() *eval.Prequential { return p.evaluator }

// Alerter exposes the alerting component.
func (p *Pipeline) Alerter() *Alerter { return p.alerter }

// Users exposes the sharded per-user state store (session windows,
// offense history, escalation scores). It is safe to read concurrently
// with processing; the serving layer's GET /v1/users/{id} goes through
// it.
func (p *Pipeline) Users() *userstate.Store { return p.users }

// SubscribeVerdicts registers a sink for session and escalation
// verdicts. Sinks run on the processing goroutine and must not block.
func (p *Pipeline) SubscribeVerdicts(s VerdictSink) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.verdicts = append(p.verdicts, s)
}

// observeUser folds one prediction into the user-state store, attaches
// any verdicts to the result, and fans them out to the verdict sinks.
// Called with p.mu held. The span (nil when tracing is off) separates the
// store fold (StageObserve) from the sink fan-out (StageVerdict).
func (p *Pipeline) observeUser(tw *twitterdata.Tweet, aggressive bool, confidence float64, sp *obs.Span) (*SessionVerdict, *EscalationVerdict) {
	if tw.User.IDStr == "" {
		return nil, nil
	}
	sp.BeginStage(obs.StageObserve)
	out := p.users.Observe(userstate.Observation{
		UserID:     tw.User.IDStr,
		ScreenName: tw.User.ScreenName,
		At:         tw.PostedAt(),
		Aggressive: aggressive,
		Confidence: confidence,
	})
	sp.BeginStage(obs.StageVerdict)
	for _, s := range p.verdicts {
		if out.Session != nil {
			s.HandleSession(*out.Session)
		}
		if out.Escalation != nil {
			s.HandleEscalation(*out.Escalation)
		}
	}
	return out.Session, out.Escalation
}

// Sampler exposes the boosted sampling component.
func (p *Pipeline) Sampler() *BoostedSampler { return p.sampler }

// Processed returns the number of tweets processed.
func (p *Pipeline) Processed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed
}

// DriftStats reports the model's drift telemetry (nil for models without
// drift detectors), serialized against the processing lock so the serving
// layer can read it while a shard goroutine trains.
func (p *Pipeline) DriftStats() *stream.DriftStats {
	dr, ok := p.model.(stream.DriftReporter)
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := dr.DriftStats()
	return &st
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

// ExtractInstance runs preprocessing, feature extraction, and
// normalization (steps 1-3) for one tweet, returning the instance with its
// class index attached when the tweet is labeled. The normalizer statistics
// are updated with the raw vector before scaling.
func (p *Pipeline) ExtractInstance(tw *twitterdata.Tweet) ml.Instance {
	return p.extractInstanceTraced(tw, nil)
}

// extractInstanceTraced is ExtractInstance with stage attribution: the
// extraction-cache probe lands in StageCache, and StageExtract opens only
// on a miss (so a hit's trace shows extract literally skipped). The raw
// pre-normalization vector is what the cache stores; the normalizer fold
// runs on every tweet either way, so its statistics are identical with
// and without the cache.
func (p *Pipeline) extractInstanceTraced(tw *twitterdata.Tweet, sp *obs.Span) ml.Instance {
	// Extraction runs through the pooled fast path; only the normalized
	// vector escapes (into the instance), so the raw vector is returned to
	// the pool before this function exits.
	raw := feature.GetVec()
	sp.BeginStage(obs.StageCache)
	if !p.extractor.LookupCached(raw[:], tw) {
		sp.BeginStage(obs.StageExtract)
		p.extractor.ExtractAndCache(raw[:], tw)
	}
	p.normalizer.Observe(raw[:])
	x := p.normalizer.Normalize(raw[:], nil)
	feature.PutVec(raw)
	label := ml.Unlabeled
	if tw.IsLabeled() {
		label = p.opts.Scheme.LabelIndex(tw.Label)
	}
	return ml.Instance{X: x, Label: label, Weight: 1, ID: tw.IDStr, Day: tw.Day}
}

// Process runs one tweet through the full pipeline: extract, normalize,
// predict, then — for labeled tweets — evaluate prequentially and train;
// for all tweets, alerting and sampling are applied to the prediction.
//
// Process serializes against the snapshot readers (Processed, Summary,
// BoWSizeCurve, PredictedDistribution, Checkpoint) so the serving layer
// can report live statistics while a shard goroutine runs the pipeline;
// concurrent Process calls on one pipeline remain unsupported (engines
// partition work across pipelines instead).
func (p *Pipeline) Process(tw *twitterdata.Tweet) Result {
	return p.ProcessTraced(tw, nil)
}

// ProcessTraced is Process with stage instrumentation: the span (nil when
// tracing is off — every span method no-ops) records the time spent in
// extraction, classification, the user-state fold, and verdict fan-out.
// The caller owns the span; ProcessTraced leaves the verdict stage open so
// post-processing cost (reply delivery, bookkeeping) lands there until the
// caller's Finish.
func (p *Pipeline) ProcessTraced(tw *twitterdata.Tweet, sp *obs.Span) Result {
	if p.snapshot.Load() != nil {
		return p.processFast(tw, 0, false, sp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processLocked(tw, sp)
}

// ProcessLogged is ProcessTraced for a tweet replayed from or appended to
// the durable ingest log: it additionally records the tweet's log offset,
// in the same critical section as the tweet's effects. Offsets must
// arrive in order — the caller (a serve shard, which owns its partition)
// guarantees that.
func (p *Pipeline) ProcessLogged(tw *twitterdata.Tweet, offset int64, sp *obs.Span) Result {
	if p.snapshot.Load() != nil {
		return p.processFast(tw, offset, true, sp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	res := p.processLocked(tw, sp)
	p.logOffset = offset
	return res
}

// LogOffset returns the ingest-log offset of the last tweet applied via
// ProcessLogged, or -1. After Checkpoint, replaying offsets (LogOffset,
// end] reproduces the uninterrupted run.
func (p *Pipeline) LogOffset() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logOffset
}

func (p *Pipeline) processLocked(tw *twitterdata.Tweet, sp *obs.Span) Result {
	in := p.extractInstanceTraced(tw, sp)
	sp.BeginStage(obs.StageClassify)
	votes := p.model.Predict(in.X)
	pred := votes.ArgMax()
	res := Result{
		Instance:   in,
		Prediction: votes,
		Predicted:  pred,
		Confidence: votes.Confidence(),
	}
	p.finishProcess(tw, &res, sp)
	return res
}

// finishProcess is the mutation section shared by the locked, fast, and
// batched paths: everything after classification — prequential record +
// train (labeled) or sampling + distribution counts (unlabeled), the
// user-state fold, verdict fan-out, alerting, and bookkeeping. Called
// with p.mu held; leaves the verdict stage open (callers close or
// Finish it).
func (p *Pipeline) finishProcess(tw *twitterdata.Tweet, res *Result, sp *obs.Span) {
	p.activeSpan = sp
	in, pred := res.Instance, res.Predicted
	if in.IsLabeled() {
		// Prequential: test first, then train.
		p.evaluator.Record(in.Label, pred)
		p.model.Train(in)
		p.extractor.Learn(tw)
		res.Tested = true
	} else {
		if pred >= 0 && pred < len(p.predCounts) {
			p.predCounts[pred]++
		}
		p.sampler.Offer(tw, res.Prediction)
	}

	res.Session, res.Escalation = p.observeUser(tw, pred > 0, res.Confidence, sp)
	sp.BeginStage(obs.StageVerdict) // no-op unless observeUser skipped (no user ID)
	if pred > 0 {                   // any non-normal class is aggressive behavior
		res.Alerted = p.alerter.Consider(tw, p.classes.Name(pred), res.Confidence)
	}

	p.processed++
	if p.opts.SampleStep > 0 && p.processed%p.opts.SampleStep == 0 {
		p.bowSizes = append(p.bowSizes, eval.Point{
			Instances: p.processed,
			Value:     float64(p.extractor.BoW().Size()),
		})
	}
	p.activeSpan = nil
}

// processFast is the lock-free-classify path, taken whenever a compiled
// snapshot is published. Extraction runs outside the lock (the BoW
// lookup is already lock-free), a short first critical section folds the
// normalizer statistics and re-publishes the snapshot if the model moved,
// classification runs against the immutable snapshot with no lock held,
// and a second critical section applies the mutation effects (train /
// sample / observe / alert / offset). The verdict stream is bit-for-bit
// the locked path's: the pipeline has a single processing writer, so the
// model cannot move between the refresh and the classify, and the
// refreshed snapshot equals the live model by the stream equivalence
// tests.
func (p *Pipeline) processFast(tw *twitterdata.Tweet, offset int64, logged bool, sp *obs.Span) Result {
	raw := feature.GetVec()
	sp.BeginStage(obs.StageCache)
	if !p.extractor.LookupCached(raw[:], tw) {
		sp.BeginStage(obs.StageExtract)
		p.extractor.ExtractAndCache(raw[:], tw)
	}

	p.mu.Lock()
	p.normalizer.Observe(raw[:])
	x := p.normalizer.Normalize(raw[:], nil)
	snap := p.refreshSnapshotLocked(sp)
	p.mu.Unlock()
	feature.PutVec(raw)
	label := ml.Unlabeled
	if tw.IsLabeled() {
		label = p.opts.Scheme.LabelIndex(tw.Label)
	}
	in := ml.Instance{X: x, Label: label, Weight: 1, ID: tw.IDStr, Day: tw.Day}

	sp.BeginStage(obs.StageClassify)
	votes := make(ml.Prediction, snap.NumClasses())
	snap.PredictInto(votes, p.classifyScratch, x)
	pred := votes.ArgMax()
	res := Result{
		Instance:   in,
		Prediction: votes,
		Predicted:  pred,
		Confidence: votes.Confidence(),
	}

	p.mu.Lock()
	p.finishProcess(tw, &res, sp)
	if logged {
		p.logOffset = offset
	}
	// Re-publish before releasing the lock so a mutation becomes visible
	// to lock-free readers within the same call — the staleness bound.
	p.refreshSnapshotLocked(sp)
	p.mu.Unlock()
	return res
}

// BatchEntry is one tweet of a micro-batched drain (see ProcessBatch).
// Span may be nil (tracing off). Offset is the tweet's ingest-log offset,
// applied when Logged is true — entries must carry offsets in order, as
// with ProcessLogged.
type BatchEntry struct {
	Tweet  *twitterdata.Tweet
	Span   *obs.Span
	Offset int64
	Logged bool
}

// labelOf resolves a tweet to the class index its instance will carry
// (ml.Unlabeled for unlabeled tweets and unknown label strings). It is
// the run-splitting predicate of ProcessBatch: an entry trains the model
// iff labelOf >= 0, exactly mirroring Instance.IsLabeled.
func (p *Pipeline) labelOf(tw *twitterdata.Tweet) int {
	if tw.IsLabeled() {
		return p.opts.Scheme.LabelIndex(tw.Label)
	}
	return ml.Unlabeled
}

// ProcessBatch runs a micro-batch of tweets through the pipeline,
// appending one Result per entry to results (pass results[:0] to reuse
// backing storage) and returning the extended slice.
//
// Labeled entries mutate the model, so they are processed one at a time
// on the fast path; maximal runs of consecutive unlabeled entries are
// batch-processed with two lock acquisitions for the whole run instead
// of two per tweet (see processRun). Every observable effect — verdicts,
// normalizer folds, sampler offers, alert decisions, log offsets —
// happens in exactly the order sequential Process calls would produce,
// so the verdict stream is bit-for-bit identical.
//
// Without a compiled snapshot the batch degenerates to per-entry locked
// processing.
func (p *Pipeline) ProcessBatch(entries []BatchEntry, results []Result) []Result {
	if p.snapshot.Load() == nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, e := range entries {
			results = append(results, p.processLocked(e.Tweet, e.Span))
			if e.Logged {
				p.logOffset = e.Offset
			}
			e.Span.EndStage()
		}
		return results
	}
	for i := 0; i < len(entries); {
		if p.labelOf(entries[i].Tweet) != ml.Unlabeled {
			e := entries[i]
			results = append(results, p.processFast(e.Tweet, e.Offset, e.Logged, e.Span))
			e.Span.EndStage()
			i++
			continue
		}
		j := i + 1
		for j < len(entries) && p.labelOf(entries[j].Tweet) == ml.Unlabeled {
			j++
		}
		results = p.processRun(entries[i:j], results)
		i = j
	}
	return results
}

// processRun batch-processes a run of consecutive unlabeled tweets in
// four phases: (A) extract every raw vector outside the lock — no entry
// in the run mutates the extractor, so each extraction sees exactly the
// state sequential processing would; (B) one critical section folds the
// normalizer statistics in entry order and refreshes the snapshot once;
// (C) classify every entry lock-free against that snapshot — the model
// cannot move inside an unlabeled run; (D) one critical section applies
// the mutation sections in entry order. Stages are closed eagerly after
// each entry's share of work so a span's stage durations never absorb
// other entries' time; inter-phase gaps appear only in the span total.
func (p *Pipeline) processRun(entries []BatchEntry, results []Result) []Result {
	base := len(results)
	raws := p.batchRaws[:0]
	for range entries {
		raws = append(raws, feature.GetVec())
	}
	for k, e := range entries {
		e.Span.BeginStage(obs.StageCache)
		if !p.extractor.LookupCached(raws[k][:], e.Tweet) {
			e.Span.BeginStage(obs.StageExtract)
			p.extractor.ExtractAndCache(raws[k][:], e.Tweet)
		}
		e.Span.EndStage()
	}

	xs := p.batchXs[:0]
	p.mu.Lock()
	for k, e := range entries {
		e.Span.BeginStage(obs.StageExtract)
		p.normalizer.Observe(raws[k][:])
		xs = append(xs, p.normalizer.Normalize(raws[k][:], nil))
		e.Span.EndStage()
	}
	snap := p.refreshSnapshotLocked(entries[0].Span)
	p.mu.Unlock()
	for _, raw := range raws {
		feature.PutVec(raw)
	}
	p.batchRaws = raws[:0]

	for k, e := range entries {
		e.Span.BeginStage(obs.StageClassify)
		votes := make(ml.Prediction, snap.NumClasses())
		snap.PredictInto(votes, p.classifyScratch, xs[k])
		e.Span.EndStage()
		results = append(results, Result{
			Instance:   ml.Instance{X: xs[k], Label: ml.Unlabeled, Weight: 1, ID: e.Tweet.IDStr, Day: e.Tweet.Day},
			Prediction: votes,
			Predicted:  votes.ArgMax(),
			Confidence: votes.Confidence(),
		})
	}
	p.batchXs = xs[:0]

	p.mu.Lock()
	for k, e := range entries {
		p.finishProcess(e.Tweet, &results[base+k], e.Span)
		if e.Logged {
			p.logOffset = e.Offset
		}
		e.Span.EndStage()
	}
	p.mu.Unlock()
	return results
}

// processAllBatch is the ProcessAll chunk size: large enough that the
// two-locks-per-run amortization dominates, small enough that the reused
// per-batch working storage stays cache-resident.
const processAllBatch = 256

// ProcessAll streams a dataset through the pipeline via the batched
// path, amortizing lock acquisitions over runs of unlabeled tweets.
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

// AbsorbBatch applies the driver-side sequential steps for one processed
// micro-batch: prequential recording, adaptive-BoW learning, alerting,
// sampling, and bookkeeping. Engines call it after merging the batch's
// model and normalizer deltas; outcomes[i] corresponds to tweets[i].
func (p *Pipeline) AbsorbBatch(tweets []twitterdata.Tweet, outcomes []Outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range tweets {
		tw := &tweets[i]
		o := outcomes[i]
		if o.Label >= 0 {
			p.evaluator.Record(o.Label, o.Pred)
			p.extractor.Learn(tw)
		} else {
			if o.Pred >= 0 && o.Pred < len(p.predCounts) {
				p.predCounts[o.Pred]++
			}
			votes := make(ml.Prediction, p.classes.Len())
			if o.Pred >= 0 && o.Pred < len(votes) {
				votes[o.Pred] = 1
			}
			p.sampler.Offer(tw, votes)
		}
		p.observeUser(tw, o.Pred > 0, o.Conf, nil)
		if o.Pred > 0 {
			p.alerter.Consider(tw, p.classes.Name(o.Pred), o.Conf)
		}
		p.processed++
		if p.opts.SampleStep > 0 && p.processed%p.opts.SampleStep == 0 {
			p.bowSizes = append(p.bowSizes, eval.Point{
				Instances: p.processed,
				Value:     float64(p.extractor.BoW().Size()),
			})
		}
	}
	// The engine merged model deltas (ApplyAccumulators) before calling
	// AbsorbBatch; re-publish so the snapshot catches up with the merge.
	p.refreshSnapshotLocked(nil)
}

// Summary returns the cumulative evaluation metrics.
func (p *Pipeline) Summary() eval.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evaluator.Summary()
}
