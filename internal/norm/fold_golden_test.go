package norm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"redhanded/internal/feature"
	"redhanded/internal/twitterdata"
)

// testdata/parent_fold.golden and testdata/parent_stats.gob were written on
// commit 353c3d7, the last one whose P² estimators were pointers and whose
// Normalize switched on the mode once per feature. Do not regenerate them
// from this tree: they are the record of what that fold produced.
//
// parent_fold.golden has a "== blocks" section, one line per mode and block
// of foldBlock consecutive vectors of the fold stream: "<mode> <block>
// <sha256>", the digest taken over the little-endian Float64bits of every
// normalized value in the block. Its "== stats" section holds the length and
// sha256 of json.Marshal of the final FeatureStats (shortest round-trip
// floats, so exact). parent_stats.gob is MarshalBinary of those same final
// statistics.
const (
	foldGolden   = "testdata/parent_fold.golden"
	foldStatsGob = "testdata/parent_stats.gob"
	foldVectorN  = 20000
	foldBlock    = 100
)

// foldModes are the modes the fold stream normalizes under, in golden order.
var foldModes = []Mode{None, MinMax, MinMaxRobust, ZScore}

// foldVectors extracts the first n raw vectors of the fold stream: tweets of
// a generator corpus under the seed vocabulary (no Learn, so the stream
// depends on extraction only through its frozen, golden-pinned form).
func foldVectors(t testing.TB, n int) [][]float64 {
	t.Helper()
	tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 22, Days: 10, NormalCount: 12600, AbusiveCount: 6400, HatefulCount: 1200,
	})
	if len(tweets) < n {
		t.Fatalf("corpus has %d tweets, want %d", len(tweets), n)
	}
	ext := feature.NewExtractor(feature.DefaultConfig())
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = ext.Extract(&tweets[i])
	}
	return xs
}

// foldTarget is what the fold stream drives: the package's FeatureStats
// (liveFold), or the parent's implementation kept in reference_test.go.
type foldTarget interface {
	Observe(x []float64)
	// mergeClone merges a deep copy of the statistics into themselves.
	mergeClone()
	// mergeFresh merges statistics that observed only xs.
	mergeFresh(xs [][]float64)
	normalize(mode Mode, x, dst []float64) []float64
}

// runFoldStream observes every vector, normalizes it under every foldModes
// entry and hands the results to visit. Two merges interrupt it: after the
// fourth vector, when every count is below 5 (the estimators' replay path),
// and half way, a clone (the weighted marker merge) followed by a
// three-vector delta (replayed into full estimators through Add).
func runFoldStream(xs [][]float64, tgt foldTarget, visit func(i int, out [][]float64)) {
	out := make([][]float64, len(foldModes))
	for i, x := range xs {
		tgt.Observe(x)
		switch i {
		case 3:
			tgt.mergeClone()
		case len(xs) / 2:
			tgt.mergeClone()
			tgt.mergeFresh(xs[:3])
		}
		for m, mode := range foldModes {
			out[m] = tgt.normalize(mode, x, out[m])
		}
		visit(i, out)
	}
}

// liveFold drives the package's FeatureStats.
type liveFold struct{ fs *FeatureStats }

func (l liveFold) Observe(x []float64) { l.fs.Observe(x) }
func (l liveFold) mergeClone()         { l.fs.Merge(l.fs.Clone()) }

func (l liveFold) mergeFresh(xs [][]float64) {
	d := NewFeatureStats(l.fs.Dim())
	for _, x := range xs {
		d.Observe(x)
	}
	l.fs.Merge(d)
}

func (l liveFold) normalize(mode Mode, x, dst []float64) []float64 {
	return (&Normalizer{Mode: mode, Stats: l.fs}).Normalize(x, dst)
}

// foldBlocks runs the fold stream over tgt and returns the golden's block
// digests.
func foldBlocks(xs [][]float64, tgt foldTarget) (blocks []string) {
	bufs := make([][]byte, len(foldModes))
	runFoldStream(xs, tgt, func(i int, out [][]float64) {
		for m, v := range out {
			for _, f := range v {
				bufs[m] = binary.LittleEndian.AppendUint64(bufs[m], math.Float64bits(f))
			}
			if (i+1)%foldBlock == 0 || i == len(xs)-1 {
				blocks = append(blocks, fmt.Sprintf("%d %d %x", foldModes[m], i/foldBlock, sha256.Sum256(bufs[m])))
				bufs[m] = bufs[m][:0]
			}
		}
	})
	return blocks
}

// jsonDigest is the golden's stats line for v.
func jsonDigest(t testing.TB, v any) []string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return []string{fmt.Sprintf("%d %x", len(blob), sha256.Sum256(blob))}
}

// loadFoldGolden splits a golden file into its "== name" sections,
// skipping "#" header lines.
func loadFoldGolden(t testing.TB) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(foldGolden)
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

// TestFoldGolden holds the fold and the four normalizations to what the
// parent commit produced, every normalized bit of the stream and the final
// statistics — and holds the reference in reference_test.go to the same
// record, so the fuzzer compares against the parent's behaviour.
func TestFoldGolden(t *testing.T) {
	golden := loadFoldGolden(t)
	xs := foldVectors(t, foldVectorN)
	fs := NewFeatureStats(feature.NumFeatures)
	requireLines(t, "blocks", foldBlocks(xs, liveFold{fs}), golden["blocks"])
	requireLines(t, "stats", jsonDigest(t, fs), golden["stats"])

	ref := newRefStats(feature.NumFeatures)
	requireLines(t, "reference blocks", foldBlocks(xs, refFold{ref}), golden["blocks"])
	requireLines(t, "reference stats", jsonDigest(t, ref), golden["stats"])
}

// TestParentStatsGobRestores restores the parent's final statistics and
// proves them identical to this tree's: same JSON, the same normalized
// vectors in every mode, and the same statistics after further folding.
func TestParentStatsGobRestores(t *testing.T) {
	blob, err := os.ReadFile(foldStatsGob)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(FeatureStats)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	xs := foldVectors(t, foldVectorN)
	live := NewFeatureStats(feature.NumFeatures)
	runFoldStream(xs, liveFold{live}, func(int, [][]float64) {})
	requireSameJSON(t, "restored", restored, live)

	var a, b []float64
	for _, x := range xs[len(xs)-foldBlock:] {
		for _, mode := range foldModes {
			a = (&Normalizer{Mode: mode, Stats: restored}).Normalize(x, a)
			b = (&Normalizer{Mode: mode, Stats: live}).Normalize(x, b)
			for f := range a {
				if math.Float64bits(a[f]) != math.Float64bits(b[f]) {
					t.Fatalf("mode %v feature %d: restored %v, live %v", mode, f, a[f], b[f])
				}
			}
		}
		restored.Observe(x)
		live.Observe(x)
	}
	requireSameJSON(t, "restored and folded", restored, live)
}

func requireSameJSON(t *testing.T, tag string, got, want *FeatureStats) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s: statistics differ (%d vs %d JSON bytes)", tag, len(g), len(w))
	}
}

func requireLines(t *testing.T, section string, got, want []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("golden has no %q section", section)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, golden has %d", section, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d diverges from the parent\n got: %s\nwant: %s", section, i, got[i], want[i])
		}
	}
}
