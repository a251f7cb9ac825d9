package engine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/eval"
	"redhanded/internal/norm"
	"redhanded/internal/twitterdata"
)

// testdata/parent_engines.golden was written on commit 43b51b2, the last
// one where the micro-batch engine and the cluster executor each carried
// their own copy of the two-phase share computation. Do not regenerate it
// from this tree: it is the record of what those copies produced. One
// section per engineGoldenCases entry, holding engineFinal's lines.
const enginesGolden = "testdata/parent_engines.golden"

// engineGoldenCases are the runs the golden covers. cluster/* is RunCluster
// over two in-process executors under the default options (robust
// normalization) and includes the marshalled normalizer statistics: neither
// the executor's fold nor the driver's share-order merge may move a bit.
// local/minmax/* is RunMicroBatch(SparkLocalConfig(3)) under norm.MinMax:
// range merges are exact in any association and only the range feeds a
// MinMax prediction, so every observable matches bit for bit. local/robust/*
// is the same engine under the default mode, where summing the partition
// deltas before they meet the global statistics may move Welford/P² in the
// last ulp — those cases hold the parent's F1 within engineGoldenF1Tol.
var engineGoldenCases = []struct {
	name  string
	kind  core.ModelKind
	mode  norm.Mode
	local bool
	exact bool
}{
	{"cluster/HT", core.ModelHT, norm.MinMaxRobust, false, true},
	{"cluster/ARF", core.ModelARF, norm.MinMaxRobust, false, true},
	{"cluster/SLR", core.ModelSLR, norm.MinMaxRobust, false, true},
	{"local/minmax/HT", core.ModelHT, norm.MinMax, true, true},
	{"local/minmax/ARF", core.ModelARF, norm.MinMax, true, true},
	{"local/minmax/SLR", core.ModelSLR, norm.MinMax, true, true},
	{"local/robust/HT", core.ModelHT, norm.MinMaxRobust, true, false},
	{"local/robust/ARF", core.ModelARF, norm.MinMaxRobust, true, false},
	{"local/robust/SLR", core.ModelSLR, norm.MinMaxRobust, true, false},
}

const engineGoldenF1Tol = 0.005

// goldenSource is the labeled/unlabeled mix of a golden run: the ARF gets
// a shorter stream (ten member trees under -race).
func goldenSource(kind core.ModelKind) Source {
	seed := 200 + uint64(kind)
	if kind == core.ModelARF {
		return NewMixedSource(testDataset(seed, 1400, 700, 140), twitterdata.NewUnlabeledSource(seed+100, 10), 3500)
	}
	return NewMixedSource(testDataset(seed, 3000, 1500, 300), twitterdata.NewUnlabeledSource(seed+100, 10), 7000)
}

// engineFinal renders everything a finished engine run leaves observable,
// without rounding anything. withStats appends a digest of the normalizer
// statistics marshalled as JSON (shortest round-trip floats, so exact; the
// gob form embeds per-process type ids and cannot be compared across runs).
func engineFinal(t *testing.T, p *core.Pipeline, stats Stats, withStats bool) []string {
	t.Helper()
	summary, err := json.Marshal(p.Summary())
	if err != nil {
		t.Fatal(err)
	}
	m := p.Evaluator().Matrix()
	var cells []string
	for i := 0; i < m.NumClasses(); i++ {
		for j := 0; j < m.NumClasses(); j++ {
			cells = append(cells, strconv.FormatInt(m.Count(i, j), 10))
		}
	}
	var dist []string
	for _, v := range p.PredictedDistribution() {
		dist = append(dist, strconv.FormatUint(math.Float64bits(v), 16))
	}
	lines := []string{
		fmt.Sprintf("processed %d", stats.Processed),
		"summary " + string(summary),
		"confusion " + strings.Join(cells, ","),
		fmt.Sprintf("bow_size %d", p.Extractor().BoW().Size()),
		"predicted_distribution " + strings.Join(dist, ","),
		fmt.Sprintf("drift %d %d %d", stats.Warnings, stats.Drifts, stats.TreeReplacements),
	}
	if withStats {
		blob, err := json.Marshal(p.Normalizer().Stats)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("normalizer_stats %d %x", len(blob), sha256.Sum256(blob)))
	}
	return lines
}

// runGoldenCase executes one engineGoldenCases entry on a fresh pipeline.
func runGoldenCase(t *testing.T, kind core.ModelKind, mode norm.Mode, local bool) (*core.Pipeline, Stats) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Model = kind
	opts.Normalization = mode
	p := core.NewPipeline(opts)
	var stats Stats
	var err error
	if local {
		stats, err = RunMicroBatch(p, goldenSource(kind), SparkLocalConfig(3))
	} else {
		stats, err = RunCluster(p, goldenSource(kind), ClusterConfig{
			Executors: startCluster(t, 2, 2), BatchSize: 500, TasksPerExecutor: 3,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, stats
}

// loadGoldenSections splits a golden file into its "== name" sections,
// skipping "#" header lines.
func loadGoldenSections(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string][]string)
	var name string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			name = strings.TrimPrefix(line, "== ")
		default:
			sections[name] = append(sections[name], line)
		}
	}
	return sections
}

// TestEngineGolden holds both engines to what the parent commit's separate
// share implementations produced.
func TestEngineGolden(t *testing.T) {
	golden := loadGoldenSections(t, enginesGolden)
	for _, tc := range engineGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want := golden[tc.name]
			if len(want) == 0 {
				t.Fatalf("no golden section %q", tc.name)
			}
			p, stats := runGoldenCase(t, tc.kind, tc.mode, tc.local)
			got := engineFinal(t, p, stats, !tc.local)
			if tc.exact {
				if len(got) != len(want) {
					t.Fatalf("%d lines, golden has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("diverges from the parent\n got: %s\nwant: %s", got[i], want[i])
					}
				}
				return
			}
			if got[0] != want[0] {
				t.Fatalf("got %q, parent %q", got[0], want[0])
			}
			var parent eval.Report
			if err := json.Unmarshal([]byte(strings.TrimPrefix(want[1], "summary ")), &parent); err != nil {
				t.Fatal(err)
			}
			now := p.Summary()
			if now.Instances != parent.Instances {
				t.Fatalf("evaluated %d instances, parent %d", now.Instances, parent.Instances)
			}
			if d := math.Abs(now.F1 - parent.F1); d > engineGoldenF1Tol {
				t.Fatalf("F1 %v, parent %v: |ΔF1| = %v > %v", now.F1, parent.F1, d, engineGoldenF1Tol)
			}
		})
	}
}
