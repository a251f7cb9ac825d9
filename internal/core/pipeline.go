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
// (checkpoints, cluster broadcast, remote accumulator deltas) and flattens
// into the immutable stream.Compiled snapshot the classify step reads. Both
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
// A Pipeline supports one processing goroutine. The read accessors
// (Processed, Summary, BoWSizeCurve, PredictedDistribution, LogOffset,
// SnapshotStats, DriftStats, Checkpoint) serialize against it, so the
// serving layer can report live statistics while a shard runs; engines
// partition work across pipelines instead of sharing one.
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

	// snapshot is the RCU-published compiled form of the model: an
	// immutable, pointer-free flattening (see stream.Compiled) that the
	// classify step reads without taking mu. It is re-published under mu
	// whenever the model's epoch moves, so at every predict the snapshot
	// is bit-for-bit the live model.
	snapshot     atomic.Pointer[stream.Compiled]
	snapRebuilds atomic.Int64 // snapshot publications that re-flattened something
	snapTrees    atomic.Int64 // member trees re-flattened across all rebuilds

	// classifyScratch backs the zero-alloc PredictInto calls; batchRaws is
	// per-run working storage; xArena and voteArena hold every Result's
	// normalized vector and votes, one stride per entry of the current
	// ProcessBatch call, and grow but never shrink. oneHot is AbsorbBatch's
	// prediction for the sampler. Only the processing goroutine touches them.
	classifyScratch []float64
	batchRaws       []*feature.Vec
	xArena          []float64
	voteArena       []float64
	oneHot          ml.Prediction

	mu sync.Mutex
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
	snap := p.model.CompileSnapshot(nil)
	p.publishLocked(snap)
	p.classifyScratch = make([]float64, snap.ScratchLen())
	p.oneHot = make(ml.Prediction, p.classes.Len())
	return p
}

// refreshSnapshotLocked re-publishes the compiled snapshot if the model
// mutated since the last publication, reusing every unchanged member
// tree and, inside a trained tree that did not split, every untouched
// leaf (see stream.CompileSnapshot). Called with p.mu held; returns the
// current snapshot. The compile cost is attributed to sp's StageCompile
// so a tweet that happened to pay for a rebuild shows it in its trace
// instead of an inflated classify stage.
func (p *Pipeline) refreshSnapshotLocked(sp *obs.Span) *stream.Compiled {
	snap := p.snapshot.Load()
	if snap.Epoch() == p.model.Epoch() {
		return snap
	}
	var start time.Time
	if sp != nil {
		start = time.Now()
	}
	next := p.model.CompileSnapshot(snap)
	p.publishLocked(next)
	if sp != nil {
		sp.AddExclusive(obs.StageCompile, time.Since(start))
	}
	return next
}

// publishLocked makes next the snapshot lock-free classifiers read and
// counts the publication. Called with p.mu held, or before p is shared.
func (p *Pipeline) publishLocked(next *stream.Compiled) {
	p.snapshot.Store(next)
	p.snapRebuilds.Add(1)
	p.snapTrees.Add(int64(next.Rebuilt()))
}

// SnapshotStats is the compiled-snapshot telemetry surfaced on /v1/stats
// and /metrics.
type SnapshotStats struct {
	// Enabled is always true: every model classifies through its compiled
	// snapshot. The field stays for /v1/stats consumers.
	Enabled bool `json:"enabled"`
	// Epoch is the model epoch the published snapshot was compiled at.
	Epoch uint64 `json:"epoch"`
	// ModelEpoch is the live model's current epoch; Age = ModelEpoch -
	// Epoch is the number of model mutations the snapshot is behind
	// (0 = fresh; the pipeline re-publishes before every classify and at
	// the end of every effects section, so a nonzero age is transient).
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

// SnapshotStats reports the compiled-snapshot telemetry.
func (p *Pipeline) SnapshotStats() SnapshotStats {
	snap := p.snapshot.Load()
	st := SnapshotStats{
		Enabled:      true,
		Epoch:        snap.Epoch(),
		Rebuilds:     p.snapRebuilds.Load(),
		TreesRebuilt: p.snapTrees.Load(),
		Trees:        snap.NumTrees(),
		Nodes:        snap.NumNodes(),
	}
	p.mu.Lock()
	st.ModelEpoch = p.model.Epoch()
	p.mu.Unlock()
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
// (ml.Unlabeled for unlabeled tweets and unknown label strings). It is
// the run-splitting predicate of ProcessBatch: an entry trains the model
// iff labelOf >= 0, exactly mirroring Instance.IsLabeled.
func (p *Pipeline) labelOf(tw *twitterdata.Tweet) int {
	if tw.IsLabeled() {
		return p.opts.Scheme.LabelIndex(tw.Label)
	}
	return ml.Unlabeled
}

// Process runs one tweet through the pipeline: a batch of one, over
// scratch on the caller's stack. (tw itself escapes: it travels in a
// BatchEntry beside a span the pipeline retains for its sinks, and escape
// analysis does not tell the two fields apart — callers looping over
// Process should reuse one Tweet rather than declare one per iteration.)
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
// The batch is processed as a sequence of runs, a run being zero or more
// unlabeled entries followed by at most one labeled entry, each in four
// phases: (A) extract every raw vector outside the lock — only a labeled
// entry's Learn mutates the extractor, and it is last, so each extraction
// sees exactly the state one-at-a-time processing would, and a labeled
// entry that misses the cache keeps its scan for that Learn, which then
// does not scan the text again; (B) one critical
// section folds the normalizer statistics in entry order and refreshes
// the snapshot; (C) classify every entry lock-free against that snapshot
// — the model cannot move before the run's last effect; (D) one critical
// section applies the effects in entry order, the labeled entry's train
// last, and re-publishes the snapshot so a mutation is visible to
// lock-free readers within the same call (the staleness bound). Every
// observable effect — verdicts, normalizer folds, sampler offers, alert
// decisions, log offsets — therefore happens in exactly the order
// one-at-a-time calls produce, whatever the batch boundaries.
//
// Each span's stage is closed after the entry's share of a phase, so
// stage durations never absorb other entries' time; inter-phase gaps
// appear only in the span total. A tweet's stages are the same alone and
// mid-batch: cache, extract (on a miss, a labeled entry's scan included,
// plus the normalizer fold), classify (plus record, train and learn when
// labeled), observe (an alert's offense included), verdict, and compile for
// the entry that paid for a snapshot rebuild.
func (p *Pipeline) ProcessBatch(entries []BatchEntry, results []Result) []Result {
	k := p.snapshot.Load().NumClasses()
	if need := len(entries) * feature.NumFeatures; len(p.xArena) < need {
		p.xArena = make([]float64, need)
	}
	if need := len(entries) * k; len(p.voteArena) < need {
		p.voteArena = make([]float64, need)
	}
	xs, votes := p.xArena, p.voteArena
	for len(entries) > 0 {
		n, label := 0, ml.Unlabeled
		for n < len(entries) && label == ml.Unlabeled {
			label = p.labelOf(entries[n].Tweet)
			n++
		}
		run := entries[:n]
		entries = entries[n:]
		base := len(results)

		raws := p.batchRaws[:0]
		var scan *feature.Scan // the labeled entry's, kept for phase D's Learn
		for j, e := range run {
			raw := feature.GetVec()
			e.Span.BeginStage(obs.StageCache)
			if key, hit := p.extractor.Lookup(raw[:], e.Tweet); !hit {
				e.Span.BeginStage(obs.StageExtract)
				if j == n-1 && label != ml.Unlabeled {
					scan = p.extractor.ExtractAndKeepScan(raw, e.Tweet, key)
				} else {
					p.extractor.ExtractAndCache(raw[:], e.Tweet, key)
				}
			}
			e.Span.EndStage()
			raws = append(raws, raw)
		}

		p.mu.Lock()
		for j, e := range run {
			e.Span.BeginStage(obs.StageExtract)
			p.normalizer.Observe(raws[j][:])
			p.normalizer.Normalize(raws[j][:], stride(xs, j, feature.NumFeatures))
			e.Span.EndStage()
		}
		snap := p.refreshSnapshotLocked(run[0].Span)
		p.mu.Unlock()
		for _, raw := range raws {
			feature.PutVec(raw)
		}
		p.batchRaws = raws[:0]

		for j, e := range run {
			x, v := stride(xs, j, feature.NumFeatures), ml.Prediction(stride(votes, j, k))
			in := ml.Instance{X: x, Label: ml.Unlabeled, Weight: 1, ID: e.Tweet.IDStr, Day: e.Tweet.Day}
			if j == n-1 {
				in.Label = label
			}
			e.Span.BeginStage(obs.StageClassify)
			snap.PredictInto(v, p.classifyScratch, x)
			e.Span.EndStage()
			results = append(results, Result{
				Instance:   in,
				Prediction: v,
				Predicted:  v.ArgMax(),
				Confidence: v.Confidence(),
			})
		}
		xs, votes = xs[n*feature.NumFeatures:], votes[n*k:]

		p.mu.Lock()
		for j, e := range run {
			res := &results[base+j]
			if res.Instance.IsLabeled() {
				e.Span.BeginStage(obs.StageClassify)
				p.model.Train(res.Instance)
			}
			p.absorb(e.Tweet, res, e.Span, scan) // only the labeled last entry reads scan
			if e.Logged {
				p.logOffset = e.Offset
			}
			e.Span.EndStage()
		}
		p.refreshSnapshotLocked(run[n-1].Span)
		p.mu.Unlock()
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
// two-locks-per-run amortization dominates, small enough that the reused
// per-batch working storage stays cache-resident.
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
// in parallel, after the engine merged its normalizer deltas: the model
// accumulators (under the lock, so DriftStats may be read mid-run), then
// each tweet's effects; outcomes[i] corresponds to tweets[i].
func (p *Pipeline) AbsorbBatch(accs []ml.Accumulator, tweets []twitterdata.Tweet, outcomes []Outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	// Re-publish so the snapshot catches up with the merged accumulators.
	p.refreshSnapshotLocked(nil)
}

// Summary returns the cumulative evaluation metrics.
func (p *Pipeline) Summary() eval.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evaluator.Summary()
}
