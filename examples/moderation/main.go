// Moderation: the alerting workflow the paper's §III-A describes — alerts
// stream to a moderator queue in real time, per-user offense histories
// accumulate, and repeat offenders are recommended for suspension. The
// labeling loop is closed with the boosted sampler: periodically, a
// prediction-boosted sample of unlabeled tweets is "annotated" and fed
// back to keep the model current. Session-level windows (the paper's §VI
// future work) aggregate repetitive hostility into per-user verdicts.
package main

import (
	"fmt"
	"log"
	"time"

	"redhanded"
	"redhanded/internal/core"
	"redhanded/internal/twitterdata"
)

func main() {
	log.SetFlags(0)

	opts := redhanded.DefaultOptions()
	opts.Scheme = redhanded.TwoClass
	opts.AlertThreshold = 0.7 // only confident alerts reach moderators
	// The pipeline's own per-user store watches for repetitive hostility
	// within sliding windows.
	opts.Users.Session = redhanded.SessionConfig{
		Window: 24 * time.Hour, MinTweets: 4, AggressiveShare: 0.7,
	}
	p := redhanded.NewPipeline(opts)
	p.Alerter().SuspendAfter = 3

	// Moderator queue: the first few alerts are shown live.
	shown := 0
	p.Alerter().Subscribe(redhanded.AlertSinkFunc(func(a redhanded.Alert) {
		if shown < 8 {
			fmt.Printf("ALERT  %-10s conf=%.2f  @%-10s %q\n",
				a.Label, a.Confidence, a.ScreenName, clip(a.Text, 56))
			shown++
		}
	}))

	// Warm the model up with labeled history, then moderate live
	// (unlabeled) traffic.
	warmup := redhanded.GenerateAggression(redhanded.AggressionConfig{
		Seed: 42, Days: 10, NormalCount: 5000, AbusiveCount: 2500, HatefulCount: 450,
	})
	p.ProcessAll(warmup)
	fmt.Printf("model warmed up: F1=%.3f over %d labeled tweets\n\n",
		p.Summary().F1, p.Summary().Instances)

	// Live traffic: the generator doubles as ground truth for the
	// simulated annotators. A small pool of habitual offenders posts the
	// aggressive tweets, so per-user histories accumulate and their
	// windows draw session verdicts.
	gen := twitterdata.NewGenerator(77, 10)
	var live []twitterdata.Tweet
	classes := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 2} // ~30% aggressive
	sessionVerdicts := 0
	for i := 0; i < 6000; i++ {
		class := classes[i%len(classes)]
		tw := gen.Tweet(class, i%10)
		if class != 0 {
			offender := fmt.Sprintf("offender%02d", i%40)
			tw.User.IDStr = offender
			tw.User.ScreenName = offender
		}
		truth := tw
		truth.Label = []string{"normal", "abusive", "hateful"}[class]
		live = append(live, truth)
		tw.Label = "" // the pipeline sees it unlabeled
		res := p.Process(&tw)
		if v := res.Session; v != nil {
			sessionVerdicts++
			if sessionVerdicts <= 3 {
				fmt.Printf("SESSION @%s: %d tweets, %.0f%% aggressive in window\n",
					v.ScreenName, v.Tweets, 100*v.AggressiveShare)
			}
		}
	}

	fmt.Printf("\nlive traffic: %d tweets, %d alerts\n", 6000, p.Alerter().Raised())
	fmt.Printf("users recommended for suspension (>= 3 offenses): %d\n",
		len(p.Alerter().SuspendedUsers()))
	fmt.Printf("aggressive session verdicts (windowed): %d\n", sessionVerdicts)

	dist := p.PredictedDistribution()
	fmt.Printf("predicted class distribution over live traffic: normal=%.2f aggressive=%.2f\n",
		dist[0], dist[1])

	// Labeling round: drain the boosted sample, annotate, retrain.
	sample := p.Sampler().Drain()
	annotator := core.NewAnnotator(live, 0.02, 99) // 2% label noise
	newlyLabeled := annotator.Annotate(sample)
	aggressive := 0
	for i := range newlyLabeled {
		if newlyLabeled[i].Label != "normal" {
			aggressive++
		}
		p.Process(&newlyLabeled[i])
	}
	fmt.Printf("\nlabeling round: %d sampled tweets annotated (%.0f%% aggressive thanks to boosting)\n",
		len(newlyLabeled), 100*float64(aggressive)/float64(len(newlyLabeled)))
	fmt.Printf("updated model F1: %.3f\n", p.Summary().F1)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
