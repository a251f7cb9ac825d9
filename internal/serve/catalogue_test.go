package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"redhanded/internal/ingestlog"
	"redhanded/internal/obs"
	"redhanded/internal/twitterdata"
)

// The catalogue goldens hold, one line per family sorted by name, the
// family's name, # TYPE, label keys and # HELP as a traced 2-shard server
// with the runtime gauges registered exposes them, with and without a WAL.
// They were written on commit 13cef87, where every sampled series still
// read its owner through a closure of its own; do not regenerate them from
// this tree: a family the server exposes must keep its name, type, help
// text and label keys however its value is read.
var catalogueGoldens = []struct {
	file string
	wal  bool
}{
	{"testdata/metrics_catalogue_wal.golden", true},
	{"testdata/metrics_catalogue_nowal.golden", false},
}

// catalogueServer builds the server the goldens describe and sends it one
// request of each kind, so every family that exists only after its first
// event exists.
func catalogueServer(t *testing.T, wal bool) *httptest.Server {
	t.Helper()
	opts := testOptions()
	opts.Shards = 2
	opts.Trace = true
	if wal {
		l, err := ingestlog.Open(ingestlog.Options{Dir: t.TempDir(), Partitions: opts.Shards, Fsync: ingestlog.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		opts.Log = l
	}
	obs.RegisterRuntimeGauges(opts.Registry)
	s := NewServer(opts)
	t.Cleanup(func() { s.Drain(context.Background()) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	tw := makeTweet("1", "9", "you are a worthless idiot", twitterdata.LabelHateful)
	blob, _ := tw.Marshal()
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/classify", string(blob)},
		{"POST", "/v1/ingest", string(blob) + "\n"},
		{"GET", "/v1/users/9", ""},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/trace", ""},
		{"GET", "/v1/trace/slow", ""},
		{"GET", "/healthz", ""},
		{"GET", "/v1/alerts", ""}, // closing the body ends the stream
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	return ts
}

// catalogueOf scrapes url's /metrics and returns its catalogue lines:
// "name type {label keys} help", sorted. A family whose # HELP or # TYPE
// appears twice in the scrape is an error.
func catalogueOf(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type family struct {
		typ, help string
		keys      []string
	}
	families := make(map[string]*family)
	seen := make(map[string]bool) // "HELP name", "TYPE name"
	var cur *family
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(rest, " ")
			name, text, _ := strings.Cut(rest, " ")
			if seen[kind+" "+name] {
				t.Errorf("family %s: # %s written twice in one scrape", name, kind)
			}
			seen[kind+" "+name] = true
			if families[name] == nil {
				families[name] = &family{}
			}
			cur = families[name]
			if kind == "HELP" {
				cur.help = text
			} else {
				cur.typ = text
			}
			continue
		}
		if line == "" || cur == nil {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		_, labels, _ := strings.Cut(series, "{")
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && !slices.Contains(cur.keys, k) {
				cur.keys = append(cur.keys, k)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for name, f := range families {
		slices.Sort(f.keys)
		out = append(out, fmt.Sprintf("%s %s {%s} %s", name, f.typ, strings.Join(f.keys, ","), f.help))
	}
	slices.Sort(out)
	return out
}

// TestMetricsCatalogueMatchesParent holds every family's name, type, help
// text and label keys to the goldens, and each family to one # HELP and
// one # TYPE per scrape.
func TestMetricsCatalogueMatchesParent(t *testing.T) {
	for _, g := range catalogueGoldens {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatal(err)
			}
			ts := catalogueServer(t, g.wal)
			got := strings.Join(catalogueOf(t, ts.URL), "\n") + "\n"
			if got != string(want) {
				t.Errorf("catalogue differs from %s:\n%s", g.file, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines only want has (-) and only got has (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
