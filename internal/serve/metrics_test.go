package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// scrapeMetrics reads the server's /metrics and returns every sample keyed
// by its series (family name plus label set). Safe off the test goroutine:
// on an error it records a failure and reports false.
func scrapeMetrics(t *testing.T, url string) (map[string]float64, bool) {
	body, ok := httpGet(t, url+"/metrics", http.StatusOK)
	if !ok {
		return nil, false
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("unparsable sample %q: %v", line, err)
			return nil, false
		}
		samples[line[:i]] = v
	}
	return samples, true
}

func fetchStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// checkAgreement compares every count /v1/stats reports with the series
// /metrics exposes for it, and returns the stats.
func checkAgreement(t *testing.T, name string, s *Server) Stats {
	t.Helper()
	ts := httptest.NewServer(s)
	defer ts.Close()
	st := fetchStats(t, ts.URL)
	m, ok := scrapeMetrics(t, ts.URL)
	if !ok {
		t.FailNow()
	}
	want := map[string]int64{
		"redhanded_alerts_raised_total":              st.AlertsRaised,
		"redhanded_userstate_session_verdicts_total": st.SessionVerdicts,
		"redhanded_userstate_escalations_total":      st.Escalations,
		"redhanded_arf_warnings_total":               st.Warnings,
		"redhanded_arf_drifts_total":                 st.Drifts,
		"redhanded_arf_tree_replacements_total":      st.TreeReplacements,
	}
	for _, sh := range st.PerShard {
		want[fmt.Sprintf(`redhanded_shard_processed_total{shard="%d"}`, sh.Shard)] = sh.Processed
	}
	for series, n := range want {
		if got, ok := m[series]; !ok || got != float64(n) {
			t.Errorf("%s: /metrics %s = %v (present %v), /v1/stats says %d", name, series, got, ok, n)
		}
	}
	evictions := m[`redhanded_userstate_evictions_total{reason="cap"}`] + m[`redhanded_userstate_evictions_total{reason="ttl"}`]
	if evictions != float64(st.UserEvictions) {
		t.Errorf("%s: /metrics user evictions = %v, /v1/stats says %d", name, evictions, st.UserEvictions)
	}
	return st
}

// TestMetricsAgreeWithStats: /metrics and /v1/stats read the same owners.
// Two servers share the process, each on its own registry, and only one
// sees traffic: the idle one must report zeros, not its neighbour's
// alerts. A server restored from the busy one's checkpoint must agree
// too, since the user-state counters and the processed counts resume
// from the checkpoint. An ARF server with a small user cap covers the
// drift totals and the evictions.
func TestMetricsAgreeWithStats(t *testing.T) {
	opts := func() Options {
		o := testOptions()
		o.Shards = 2
		o.Pipeline.AlertThreshold = 0.1
		o.Pipeline.Users = userstate.Config{
			Session:    userstate.SessionConfig{Window: 4 * time.Hour, MinTweets: 3, AggressiveShare: 0.5, Cooldown: 10 * time.Minute},
			Escalation: userstate.EscalationConfig{Threshold: 0.3, MinTweets: 6, MinSpan: 20 * time.Minute, Cooldown: 10 * time.Minute},
		}
		return o
	}
	traffic := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 7, Days: 1, NormalCount: 300, AbusiveCount: 200, HatefulCount: 60,
	})
	for i := range traffic {
		traffic[i].User.IDStr = fmt.Sprint("u", i%8) // repeat offenders
	}

	busy, idle := NewServer(opts()), NewServer(opts())
	defer idle.Drain(context.Background())
	ingestAll(t, busy, traffic)
	if st := checkAgreement(t, "busy", busy); st.AlertsRaised == 0 || st.SessionVerdicts == 0 || st.Escalations == 0 {
		t.Fatalf("traffic raised too little to compare: %+v", st)
	}
	if st := checkAgreement(t, "idle", idle); st.Processed != 0 || st.AlertsRaised != 0 {
		t.Fatalf("idle server processed %d tweets, raised %d alerts", st.Processed, st.AlertsRaised)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := busy.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := busy.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	restored := NewServer(opts())
	defer restored.Drain(context.Background())
	if err := restored.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if st := checkAgreement(t, "restored", restored); st.Processed != int64(len(traffic)) || st.SessionVerdicts == 0 {
		t.Fatalf("restore did not resume the counts: %+v", st)
	}

	ao := arfOptions()
	ao.Pipeline.Users.MaxUsers = 20
	arf := NewServer(ao)
	defer arf.Drain(context.Background())
	ingestAll(t, arf, twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 3, Days: 1, NormalCount: 1200, AbusiveCount: 600, HatefulCount: 100, ShiftAt: 900,
	}))
	if st := checkAgreement(t, "arf", arf); st.Warnings == 0 || st.UserEvictions == 0 {
		t.Fatalf("ARF traffic left drift or evictions at zero: %+v", st)
	}
}

// TestMetricsCatalogue holds DESIGN.md's metric catalogue equal to what a
// server exposes — catalogueServer's, with a WAL: every family has a row, every row's Type is the
// family's # TYPE, and every row shows up in the scrape except the
// engine-owned ones, which live on the default registry.
func TestMetricsCatalogue(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "### Metric catalogue\n")
	section, _, _ = strings.Cut(section, "\n#")
	type row struct{ typ, owner string }
	catalogued := make(map[string]row)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		catalogued[name] = row{strings.TrimSpace(cells[2]), strings.TrimSpace(cells[4])}
	}
	if len(catalogued) == 0 {
		t.Fatal("DESIGN.md has no metric catalogue rows")
	}

	ts := catalogueServer(t, true)
	scraped := make(map[string]bool)
	for _, line := range catalogueOf(t, ts.URL) {
		f := strings.Fields(line)
		name, typ := f[0], f[1]
		scraped[name] = true
		switch r, ok := catalogued[name]; {
		case !ok:
			t.Errorf("metric family %s is missing from DESIGN.md's catalogue", name)
		case r.typ != typ:
			t.Errorf("metric family %s is a %s, DESIGN.md's catalogue says %s", name, typ, r.typ)
		}
	}
	if len(scraped) == 0 {
		t.Fatal("scrape exposed no families")
	}
	for name, r := range catalogued {
		if !scraped[name] && !strings.HasPrefix(r.owner, "engine:") {
			t.Errorf("DESIGN.md's catalogue lists %s, which the server does not expose", name)
		}
	}
}
