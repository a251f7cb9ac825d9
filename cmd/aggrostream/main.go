// Command aggrostream runs the real-time aggression detection pipeline
// over a JSONL tweet stream (stdin or a file), raising alerts as they
// happen and reporting the prequential evaluation at the end.
//
// Usage:
//
//	datagen -dataset aggression -scale 0.2 | aggrostream -classes 2 -show-alerts
//	aggrostream -in tweets.jsonl -model arf -norm zscore
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"redhanded/internal/core"
	"redhanded/internal/norm"
	"redhanded/internal/twitterdata"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aggrostream: ")
	var (
		in         = flag.String("in", "-", "input JSONL path (- for stdin)")
		model      = flag.String("model", "ht", "streaming model: ht, arf, slr")
		classes    = flag.String("classes", "3", "class scheme: 2 or 3")
		preprocess = flag.Bool("preprocess", true, "enable text preprocessing")
		normMode   = flag.String("norm", "robust", "normalization: none, minmax, robust, zscore")
		adaptive   = flag.Bool("adaptive-bow", true, "enable the adaptive bag-of-words")
		threshold  = flag.Float64("alert-threshold", 0.5, "alert confidence threshold")
		showAlerts = flag.Bool("show-alerts", false, "print each alert as it is raised")
		maxAlerts  = flag.Int("max-alerts", 20, "alert print cap with -show-alerts")
	)
	flag.Parse()

	opts := core.DefaultOptions()
	opts.Preprocess = *preprocess
	opts.AdaptiveBoW = *adaptive
	opts.AlertThreshold = *threshold
	var err error
	if opts.Model, err = core.ParseModelKind(*model); err != nil {
		log.Fatal(err)
	}
	if opts.Scheme, err = core.ParseScheme(*classes); err != nil {
		log.Fatal(err)
	}
	if opts.Normalization, err = norm.ParseMode(*normMode); err != nil {
		log.Fatal(err)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	p := core.NewPipeline(opts)
	printed := 0
	if *showAlerts {
		p.Alerter().Subscribe(core.AlertSinkFunc(func(a core.Alert) {
			if printed < *maxAlerts {
				fmt.Printf("ALERT %-8s conf=%.2f user=%s tweet=%s %q\n",
					a.Label, a.Confidence, a.ScreenName, a.TweetID, clip(a.Text, 60))
				printed++
			}
		}))
	}

	reader := twitterdata.NewReader(r)
	var processed, malformed int64
	// One Tweet for the whole run: Process's argument escapes, so a
	// per-iteration variable would be a heap allocation per tweet.
	var tw twitterdata.Tweet
	for {
		tw, err = reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			malformed++
			continue
		}
		p.Process(&tw)
		processed++
	}

	rep := p.Summary()
	fmt.Printf("\nprocessed %d tweets (%d labeled, %d malformed lines skipped)\n",
		processed, rep.Instances, malformed)
	fmt.Printf("alerts raised: %d; users flagged for suspension: %d\n",
		p.Alerter().Raised(), len(p.Alerter().SuspendedUsers()))
	fmt.Printf("BoW size: %d words\n", p.Extractor().BoW().Size())
	if rep.Instances > 0 {
		fmt.Printf("prequential evaluation: accuracy=%.4f precision=%.4f recall=%.4f F1=%.4f\n",
			rep.Accuracy, rep.Precision, rep.Recall, rep.F1)
		fmt.Println(p.Evaluator().Matrix().String())
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
