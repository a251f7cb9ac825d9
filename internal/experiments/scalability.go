package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/engine"
	"redhanded/internal/twitterdata"
)

func init() {
	register("fig15", "Execution time per streaming system vs number of tweets", runFig15)
	register("fig16", "Throughput per streaming system vs number of tweets", runFig16)
}

// EngineSetup names one execution configuration of §V-E.
type EngineSetup string

// The four setups the paper compares.
const (
	SetupMOA          EngineSetup = "MOA"
	SetupSparkSingle  EngineSetup = "SparkSingle"
	SetupSparkLocal   EngineSetup = "SparkLocal"
	SetupSparkCluster EngineSetup = "SparkCluster"
)

// AllEngineSetups lists the setups in presentation order.
var AllEngineSetups = []EngineSetup{SetupMOA, SetupSparkSingle, SetupSparkLocal, SetupSparkCluster}

// ScalabilityPoint is one measurement of Figs. 15/16.
type ScalabilityPoint struct {
	Setup      EngineSetup
	Tweets     int64
	Duration   time.Duration
	Throughput float64
}

// newScalabilitySource builds the paper's workload: unlabeled tweets
// intermixed with the labeled dataset.
func newScalabilitySource(cfg Config, total int64) engine.Source {
	labeled := AggressionDataset(cfg)
	unlabeled := twitterdata.NewUnlabeledSource(cfg.Seed+999, 10)
	return engine.NewMixedSource(labeled, unlabeled, total)
}

// scalabilityOptions disables per-instance curve sampling (pure
// throughput measurement) but keeps the full pipeline running: HT,
// 3-class, p=n=ad=ON, exactly the configuration of §V-E.
func scalabilityOptions(cfg Config) core.Options {
	opts := baseOptions(cfg, core.ThreeClass, core.ModelHT)
	opts.SampleStep = 0
	return opts
}

// RunScalability measures one (setup, tweet-count) point. The unlabeled
// tweets are generated as the engine pulls them, so the sequential and
// micro-batch legs time UnlabeledSource generation along with the engine:
// over the same 250 k-tweet sequential run on a 2-vCPU box, generation was
// 32–38 % of the time with the fmt-based generator and 16–21 % with the
// append-only one (live against materialised). Materialising instead would
// hold the 2 M-tweet point's corpus, about 1 GB.
func RunScalability(cfg Config, setup EngineSetup, tweets int64) (ScalabilityPoint, error) {
	cfg = cfg.withDefaults()
	src := newScalabilitySource(cfg, tweets)
	p := core.NewPipeline(scalabilityOptions(cfg))

	var stats engine.Stats
	var err error
	switch setup {
	case SetupMOA:
		stats = engine.RunSequential(p, src)
	case SetupSparkSingle:
		stats, err = engine.RunMicroBatch(p, src, engine.SparkSingleConfig())
	case SetupSparkLocal:
		stats, err = engine.RunMicroBatch(p, src, engine.SparkLocalConfig(cfg.ClusterWorkers))
	case SetupSparkCluster:
		stats, err = runClusterScalability(cfg, p, src)
	default:
		return ScalabilityPoint{}, fmt.Errorf("experiments: unknown setup %q", setup)
	}
	if err != nil {
		return ScalabilityPoint{}, err
	}
	return ScalabilityPoint{
		Setup: setup, Tweets: stats.Processed,
		Duration: stats.Duration, Throughput: stats.Throughput(),
	}, nil
}

// runClusterScalability starts the executor nodes on loopback TCP, runs
// the workload, and tears the cluster down.
func runClusterScalability(cfg Config, p *core.Pipeline, src engine.Source) (engine.Stats, error) {
	var addrs []string
	var executors []*engine.Executor
	defer func() {
		for _, ex := range executors {
			ex.Close()
		}
	}()
	for i := 0; i < cfg.ClusterExecutors; i++ {
		ex, err := engine.StartExecutor("127.0.0.1:0", cfg.ClusterWorkers)
		if err != nil {
			return engine.Stats{}, err
		}
		executors = append(executors, ex)
		addrs = append(addrs, ex.Addr())
	}
	return engine.RunCluster(p, src, engine.ClusterConfig{
		Executors:        addrs,
		BatchSize:        3000,
		TasksPerExecutor: cfg.ClusterWorkers,
	})
}

// scalabilityCache shares one sweep between fig15 and fig16 within a
// process (the measurements are identical; only the projection differs).
var scalabilityCache sync.Map

// Scalability sweeps all setups over the configured tweet counts. Results
// are cached per configuration so regenerating both Fig. 15 and Fig. 16
// costs one sweep.
func Scalability(cfg Config, progress io.Writer) ([]ScalabilityPoint, error) {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("scal-%v-%d-%d-%d-%v", cfg.Scale, cfg.Seed,
		cfg.ClusterExecutors, cfg.ClusterWorkers, cfg.TweetCounts)
	if v, ok := scalabilityCache.Load(key); ok {
		return v.([]ScalabilityPoint), nil
	}
	var out []ScalabilityPoint
	for _, setup := range AllEngineSetups {
		for _, n := range cfg.TweetCounts {
			pt, err := RunScalability(cfg, setup, n)
			if err != nil {
				return out, fmt.Errorf("%s @ %d tweets: %w", setup, n, err)
			}
			if progress != nil {
				fmt.Fprintf(progress, "  %-13s %9d tweets: %8.2fs  %8.0f tweets/s\n",
					setup, pt.Tweets, pt.Duration.Seconds(), pt.Throughput)
			}
			out = append(out, pt)
			runtime.GC()
		}
	}
	scalabilityCache.Store(key, out)
	return out, nil
}

func scalabilityTable(points []ScalabilityPoint, title string, value func(ScalabilityPoint) string, valueCol string) Table {
	// Column per setup, row per tweet count.
	var counts []int64
	seen := map[int64]bool{}
	for _, pt := range points {
		if !seen[pt.Tweets] {
			seen[pt.Tweets] = true
			counts = append(counts, pt.Tweets)
		}
	}
	cols := []string{"tweets"}
	for _, s := range AllEngineSetups {
		cols = append(cols, string(s)+" "+valueCol)
	}
	t := Table{Title: title, Columns: cols}
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range AllEngineSetups {
			cell := "-"
			for _, pt := range points {
				if pt.Setup == s && pt.Tweets == n {
					cell = value(pt)
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runFig15(cfg Config, w io.Writer) error {
	points, err := Scalability(cfg, w)
	if err != nil {
		return err
	}
	scalabilityTable(points, "Fig. 15: execution time per streaming system",
		func(pt ScalabilityPoint) string { return fmt.Sprintf("%.2f", pt.Duration.Seconds()) },
		"sec").Print(w)
	return nil
}

func runFig16(cfg Config, w io.Writer) error {
	points, err := Scalability(cfg, w)
	if err != nil {
		return err
	}
	scalabilityTable(points, "Fig. 16: throughput per streaming system",
		func(pt ScalabilityPoint) string { return fmt.Sprintf("%.0f", pt.Throughput) },
		"tw/s").Print(w)
	fmt.Fprintln(w, "reported Twitter Firehose throughput: ~9000 tweets/sec")
	return nil
}
