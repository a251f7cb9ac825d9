package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"redhanded/internal/twitterdata"
)

// testdata/locked_path.golden was written on commit a198a31, the last one
// with a fully locked classify path (Options.DisableCompiledSnapshots:
// extract → Observe → Normalize → live model.Predict → effects, all under
// the pipeline mutex). Do not regenerate it from this tree: it is the
// record of what that path produced, and the path is gone. One section per
// goldenCases entry, every tweet with i%4 == 2 processed as a logged entry
// at offset i; per tweet
//
//	predicted confidence-bits vote-bits,... flags [S=session-json] [E=escalation-json]
//
// (flags: a = alerted, t = tested) and then the final observable state.
const lockedPathGolden = "testdata/locked_path.golden"

// goldenCases are the runs the golden covers: mixedStream for each model
// kind, and sessionStream, whose users post often enough to draw session
// and escalation verdicts (mixedStream's never do).
var goldenCases = []struct {
	name   string
	kind   ModelKind
	stream func() []twitterdata.Tweet
}{
	{"HT", ModelHT, func() []twitterdata.Tweet { return mixedStream(100+uint64(ModelHT), 2500, 1200, 250) }},
	{"ARF", ModelARF, func() []twitterdata.Tweet { return mixedStream(100+uint64(ModelARF), 1200, 600, 120) }},
	{"SLR", ModelSLR, func() []twitterdata.Tweet { return mixedStream(100+uint64(ModelSLR), 2500, 1200, 250) }},
	{"ARF/sessions", ModelARF, sessionStream},
}

// sessionStream is mixedStream's label mix posted one minute apart by
// eight accounts, four of which write every aggressive tweet.
func sessionStream() []twitterdata.Tweet {
	tweets := smallDataset(110, 400, 250, 60)
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range tweets {
		who := "calm"
		if tweets[i].Label != twitterdata.LabelNormal {
			who = "hostile"
		}
		tweets[i].User.IDStr = fmt.Sprintf("%s%d", who, i%4)
		tweets[i].User.ScreenName = tweets[i].User.IDStr
		tweets[i].CreatedAt = base.Add(time.Duration(i) * time.Minute).Format(twitterdata.TimeLayout)
		switch {
		case i%3 == 1:
			tweets[i].Label = ""
		case i%50 == 17:
			tweets[i].Label = "spam"
		}
	}
	return tweets
}

// goldenLogged reports whether tweet i of a golden stream is a logged entry.
func goldenLogged(i int) bool { return i%4 == 2 }

// goldenLine renders one Result without rounding anything.
func goldenLine(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %x ", res.Predicted, math.Float64bits(res.Confidence))
	for c, v := range res.Prediction {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(v))
	}
	b.WriteByte(' ')
	if res.Alerted {
		b.WriteByte('a')
	}
	if res.Tested {
		b.WriteByte('t')
	}
	if !res.Alerted && !res.Tested {
		b.WriteByte('-')
	}
	if res.Session != nil {
		b.WriteString(" S=" + mustJSON(res.Session))
	}
	if res.Escalation != nil {
		b.WriteString(" E=" + mustJSON(res.Escalation))
	}
	return b.String()
}

// goldenFinal renders the pipeline's final observable state.
func goldenFinal(p *Pipeline) []string {
	bits := func(vs []float64) string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = strconv.FormatUint(math.Float64bits(v), 16)
		}
		return strings.Join(out, ",")
	}
	var curve []string
	for _, pt := range p.BoWSizeCurve() {
		curve = append(curve, fmt.Sprintf("%d:%x", pt.Instances, math.Float64bits(pt.Value)))
	}
	return []string{
		fmt.Sprintf("processed %d", p.Processed()),
		"summary " + mustJSON(p.Summary()),
		"predicted_distribution " + bits(p.PredictedDistribution()),
		"bow_size_curve " + strings.Join(curve, ","),
		fmt.Sprintf("log_offset %d", p.LogOffset()),
		fmt.Sprintf("raised %d", p.Alerter().Raised()),
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// loadGolden returns a golden file's lines per "== name" section ("" for
// lines before any section), skipping "#" header lines.
func loadGolden(t *testing.T, path string) map[string][]string {
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

// requireGolden compares one rendered run against its golden section.
func requireGolden(t *testing.T, tag string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, golden has %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d diverges from the parent's locked path\n got: %s\nwant: %s", tag, i, got[i], want[i])
		}
	}
}

// TestFastPathMatchesLockedGolden is the equivalence proof of the one
// core: for every model kind, over a stream mixing labeled, unlabeled and
// unknown-label tweets, both the pipeline and the naive reference the
// other tests compare against reproduce, bit for bit, the verdict stream
// the parent commit's fully locked path produced.
func TestFastPathMatchesLockedGolden(t *testing.T) {
	golden := loadGolden(t, lockedPathGolden)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want := golden[tc.name]
			tweets := tc.stream()
			opts := DefaultOptions()
			opts.Model = tc.kind

			p, ref := NewPipeline(opts), NewPipeline(opts)
			var got, gotRef []string
			for i := range tweets {
				var res Result
				if goldenLogged(i) {
					res = p.ProcessBatch([]BatchEntry{{Tweet: &tweets[i], Offset: int64(i), Logged: true}}, nil)[0]
				} else {
					res = p.Process(&tweets[i])
				}
				got = append(got, goldenLine(res))
				gotRef = append(gotRef, goldenLine(referenceProcess(ref, &tweets[i], int64(i), goldenLogged(i))))
			}
			requireGolden(t, "pipeline", append(got, goldenFinal(p)...), want)
			requireGolden(t, "reference", append(gotRef, goldenFinal(ref)...), want)
			if st := p.SnapshotStats(); st.Rebuilds < 2 {
				t.Fatalf("the pipeline never rebuilt its snapshot: %+v", st)
			}
		})
	}
}
