package core

import (
	"redhanded/internal/eval"
	"redhanded/internal/feature"
	"redhanded/internal/ml"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// referenceProcess is the naive per-tweet path the equivalence tests
// compare ProcessBatch against: extract → Observe → Normalize → *live*
// model.Predict → effects, one tweet at a time, all under the pipeline
// mutex, sharing no control flow with the core: Learn scans the text
// again, and an alert folds its offense in a second user-state call. It
// never reads or refreshes the compiled snapshot.
// TestFastPathMatchesLockedGolden pins it to the parent commit's locked
// path.
func referenceProcess(p *Pipeline, tw *twitterdata.Tweet, offset int64, logged bool) Result {
	p.mu.Lock()
	defer p.mu.Unlock()

	raw := make([]float64, feature.NumFeatures)
	if key, hit := p.extractor.Lookup(raw, tw); !hit {
		p.extractor.ExtractAndCache(raw, tw, key)
	}
	p.normalizer.Observe(raw)
	in := ml.Instance{X: p.normalizer.Normalize(raw, nil), Label: ml.Unlabeled, Weight: 1, ID: tw.IDStr, Day: tw.Day}
	if tw.IsLabeled() {
		in.Label = p.opts.Scheme.LabelIndex(tw.Label)
	}
	votes := p.model.Predict(in.X)
	res := Result{Instance: in, Prediction: votes, Predicted: votes.ArgMax(), Confidence: votes.Confidence()}

	if in.IsLabeled() {
		p.evaluator.Record(in.Label, res.Predicted)
		p.model.Train(in)
		p.extractor.Learn(tw)
		res.Tested = true
	} else {
		if res.Predicted >= 0 && res.Predicted < len(p.predCounts) {
			p.predCounts[res.Predicted]++
		}
		p.sampler.Offer(tw, votes)
	}
	if tw.User.IDStr != "" {
		out := p.users.Observe(userstate.Observation{
			UserID:     tw.User.IDStr,
			ScreenName: tw.User.ScreenName,
			At:         tw.PostedAt(),
			Aggressive: res.Predicted > 0,
			Confidence: res.Confidence,
		})
		for _, s := range p.verdicts {
			if out.Session != nil {
				s.HandleSession(*out.Session)
			}
			if out.Escalation != nil {
				s.HandleEscalation(*out.Escalation)
			}
		}
		res.Session, res.Escalation = out.Session, out.Escalation
	}
	// The alert's offense is a second, offense-only observation.
	if res.Predicted > 0 {
		res.Alerted = p.alerter.Consider(tw, p.classes.Name(res.Predicted), res.Confidence)
	}
	p.processed++
	if p.opts.SampleStep > 0 && p.processed%p.opts.SampleStep == 0 {
		p.bowSizes = append(p.bowSizes, eval.Point{Instances: p.processed, Value: float64(p.extractor.BoW().Size())})
	}
	if logged {
		p.logOffset = offset
	}
	return res
}

// Consider raises an alert when confidence clears the threshold, recording
// the offense with an offense-only observation; it returns whether an
// alert was raised. It is the alerting step on its own, for a tweet whose
// full observation the caller made: the pipeline instead decides the alert
// before observing (arm) and folds the tweet and its offense in one
// ObserveAlert.
func (a *Alerter) Consider(tw *twitterdata.Tweet, predicted string, confidence float64) bool {
	suspendAfter, ok := a.arm(confidence)
	if !ok {
		return false
	}
	out := a.users.Observe(userstate.Observation{
		UserID:       tw.User.IDStr,
		ScreenName:   tw.User.ScreenName,
		At:           tw.PostedAt(),
		Aggressive:   true,
		Confidence:   confidence,
		Offense:      true,
		SuspendAfter: suspendAfter,
		OffenseOnly:  true,
	})
	a.raise(tw, predicted, confidence, out)
	return true
}
