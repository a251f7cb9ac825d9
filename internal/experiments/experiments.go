// Package experiments implements one runner per table and figure of the
// paper's evaluation (§V), producing the same rows and series the paper
// reports. Runners are shared by the benchrunner CLI and the repository's
// benchmark suite. Absolute numbers differ from the paper (synthetic data,
// different hardware).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"redhanded/internal/core"
	"redhanded/internal/eval"
	"redhanded/internal/twitterdata"
)

// Config controls experiment scale so the suite can run quickly during
// development and at paper scale for the record.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = the paper's 86k tweets).
	Scale float64
	// Seed drives dataset generation and model randomness.
	Seed uint64
	// TweetCounts are the x-axis points of the scalability experiments
	// (the paper sweeps 250k to 2M).
	TweetCounts []int64
	// ClusterExecutors / ClusterWorkers shape the SparkCluster setup
	// (paper: 3 nodes x 8 cores).
	ClusterExecutors int
	ClusterWorkers   int
}

// DefaultConfig is full paper scale.
func DefaultConfig() Config {
	return Config{
		Scale:            1.0,
		Seed:             42,
		TweetCounts:      []int64{250000, 500000, 1000000, 2000000},
		ClusterExecutors: 3,
		ClusterWorkers:   8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.TweetCounts) == 0 {
		c.TweetCounts = d.TweetCounts
	}
	if c.ClusterExecutors <= 0 {
		c.ClusterExecutors = d.ClusterExecutors
	}
	if c.ClusterWorkers <= 0 {
		c.ClusterWorkers = d.ClusterWorkers
	}
	return c
}

// scaledAggressionConfig shrinks the 86k dataset by Scale.
func (c Config) scaledAggressionConfig() twitterdata.AggressionConfig {
	base := twitterdata.DefaultAggressionConfig()
	base.Seed = c.Seed
	base.NormalCount = scaleCount(base.NormalCount, c.Scale)
	base.AbusiveCount = scaleCount(base.AbusiveCount, c.Scale)
	base.HatefulCount = scaleCount(base.HatefulCount, c.Scale)
	return base
}

func scaleCount(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 10 {
		v = 10
	}
	return v
}

// datasetCache shares generated datasets across experiments in a process.
var datasetCache sync.Map

// AggressionDataset returns the (possibly scaled) labeled dataset,
// generating it once per configuration.
func AggressionDataset(cfg Config) []twitterdata.Tweet {
	cfg = cfg.withDefaults()
	key := fmt.Sprintf("aggr-%v-%d", cfg.Scale, cfg.Seed)
	if v, ok := datasetCache.Load(key); ok {
		return v.([]twitterdata.Tweet)
	}
	data := twitterdata.GenerateAggression(cfg.scaledAggressionConfig())
	datasetCache.Store(key, data)
	return data
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Print renders the table with aligned columns.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Series is one named metric-over-instances curve.
type Series struct {
	Name   string
	Points []eval.Point
}

// CurveTable tabulates several series on a shared instance axis
// (values carried forward between samples), matching how the paper's
// figures overlay multiple configurations.
func CurveTable(title string, series []Series, step int64) Table {
	var maxN int64
	for _, s := range series {
		if len(s.Points) > 0 {
			if last := s.Points[len(s.Points)-1].Instances; last > maxN {
				maxN = last
			}
		}
	}
	cols := []string{"tweets"}
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	t := Table{Title: title, Columns: cols}
	for n := step; n <= maxN; n += step {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.4f", valueAt(s.Points, n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// valueAt returns the latest sample at or before n (0 when none).
func valueAt(points []eval.Point, n int64) float64 {
	i := sort.Search(len(points), func(i int) bool { return points[i].Instances > n })
	if i == 0 {
		return 0
	}
	return points[i-1].Value
}

// Runner executes one experiment and writes its result.
type Runner func(cfg Config, w io.Writer) error

// registry maps experiment ids to runners; populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

var descriptions = map[string]string{}

func register(id, description string, r Runner) {
	registry[id] = r
	descriptions[id] = description
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config, w io.Writer) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg.withDefaults(), w)
}

// IDs lists the registered experiments in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Description returns the one-line description of an experiment.
func Description(id string) string { return descriptions[id] }

// runPipeline executes the pipeline sequentially over the dataset with the
// given options and returns it for inspection.
func runPipeline(opts core.Options, data []twitterdata.Tweet) *core.Pipeline {
	p := core.NewPipeline(opts)
	p.ProcessAll(data)
	return p
}

// baseOptions are the paper's defaults (everything ON) with the curve
// sampling adjusted to the dataset size so figures keep ~90 points.
func baseOptions(cfg Config, scheme core.ClassScheme, model core.ModelKind) core.Options {
	opts := core.DefaultOptions()
	opts.Scheme = scheme
	opts.Model = model
	opts.Seed = cfg.Seed
	opts.SampleStep = int64(1000 * cfg.Scale)
	if opts.SampleStep < 50 {
		opts.SampleStep = 50
	}
	return opts
}

func onOff(v bool) string {
	if v {
		return "ON"
	}
	return "OFF"
}
