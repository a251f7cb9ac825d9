package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"redhanded/internal/serve"
	"redhanded/internal/twitterdata"
)

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// A round's reading is divided by the speed the machine ran at during that
// round, and the metric is the median round: a slow stretch of the host moves
// raw readings and probe alike and leaves the calibrated metric alone.
func TestRoundsAreCalibratedByTheirOwnProbe(t *testing.T) {
	var rounds []round
	for i, slow := range []float64{1, 1.5, 1, 2, 1.25} { // the host's weather, round by round
		rounds = append(rounds, round{
			SteadySpeed: speed(slow), BurstSpeed: speed(slow),
			P50ms: 3 * slow, P90ms: 5 * slow, P99ms: 8 * slow, TPS: 60_000 / slow, CPUUS: 30 * slow, Verdicts: 1000 + i,
		})
	}
	cal, raw := summarizeRounds(rounds)
	for name, want := range map[string]float64{"throughput_tps": 60_000, "cpu_us_per_tweet": 30, "verdict_latency_p50_ms": 3, "verdict_latency_p90_ms": 5} {
		if got := cal[name]; got < want*0.9999 || got > want*1.0001 {
			t.Errorf("calibrated %s = %v, want %v", name, got, want)
		}
	}
	if raw["throughput_tps"] != 60_000/1.25 || raw["cpu_us_per_tweet"] != 30*1.25 || raw["verdict_latency_p99_ms"] != 8*1.25 || raw["machine_speed"] != 1.25 {
		t.Errorf("uncalibrated medians %v: want the median round's raw readings", raw)
	}
}

func TestStealShare(t *testing.T) {
	// 12 ticks of 100 Hz over 1.5 s of an n-CPU machine.
	if got, want := stealShare(12, 1500*time.Millisecond), 12/(1.5*float64(runtime.NumCPU())*100); got != want {
		t.Errorf("stealShare = %v, want %v", got, want)
	}
}

// The probe is fixed work: the same units touch the same memory whatever ran
// before, and a reading is a positive multiple of the nominal cost.
func TestProbe(t *testing.T) {
	p := newProber()
	a, b := uint32(1), uint32(1)
	var ka, kb [64][]byte
	if x, y := p.unit(&a, &ka), p.unit(&b, &kb); x != y || a != b {
		t.Errorf("two probe units from the same state differ: %v (state %d) and %v (state %d)", x, a, y, b)
	}
	if sp := p.measure(2); sp <= 0 || sp > 50 {
		t.Errorf("probe reading %v: want a small positive multiple of the nominal unit", sp)
	}
	if got := between(1, 3); got != 2 {
		t.Errorf("between = %v", got)
	}
}

// The offline source cuts the run into windows, keeps the probe out of
// every reading, and stops on a whole micro-batch.
func TestTimedSourceWindows(t *testing.T) {
	tweets := make([]twitterdata.Tweet, 50)
	for i := range tweets {
		tweets[i].IDStr = fmt.Sprintf("t%09d", i)
	}
	src := newTimedSource(tweets, 0, 30*time.Millisecond, 10, 1, nil)
	n := 0
	for {
		tw, ok := src.Next()
		if !ok {
			break
		}
		if want := fmt.Sprintf("t%09d", n%50); tw.IDStr != want {
			t.Fatalf("pull %d is %s, want %s", n, tw.IDStr, want)
		}
		n++
		time.Sleep(200 * time.Microsecond)
	}
	if n%10 != 0 || n != len(src.pulls) || len(src.done) != n {
		t.Fatalf("%d pulls, %d stamped, %d returned: want whole batches of 10, all stamped", n, len(src.pulls), len(src.done))
	}
	total := 0
	for _, w := range src.windows {
		total += w.n
		if w.n%10 != 0 {
			t.Errorf("window of %d tweets: windows close on whole batches", w.n)
		}
	}
	if total != n || len(src.windows) == 0 {
		t.Errorf("windows hold %d of %d tweets", total, n)
	}
	for i := range src.pulls {
		if src.done[i] < src.pulls[i] {
			t.Fatalf("tweet %d came back before it was handed over", i)
		}
	}
}

// A batch is built by copying corpus lines and overwriting the id digits in
// place; the repository's own decoder must then see exactly the original
// tweet with the new id.
func TestPatchIDAgainstDecoder(t *testing.T) {
	c, err := buildServingCorpus(3, 0.5, 300)
	if err != nil {
		t.Fatal(err)
	}
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	const first = 999_999_700 // crosses every digit position, wraps the corpus
	body := c.appendBatch(nil, first, 600)
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 600 {
		t.Fatalf("batch has %d lines, want 600", len(lines))
	}
	for i, line := range lines {
		seq := uint64(first + i)
		var got, orig twitterdata.Tweet
		if err := dec.DecodeInto(&got, line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if err := dec.DecodeInto(&orig, c.lines[seq%300]); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("t%09d", seq%1_000_000_000)
		if got.IDStr != want {
			t.Fatalf("line %d: id %q, want %q", i, got.IDStr, want)
		}
		if back, ok := parseID([]byte(got.IDStr)); !ok || back != seq%1_000_000_000 {
			t.Fatalf("parseID(%q) = %d, %v", got.IDStr, back, ok)
		}
		orig.IDStr = got.IDStr
		if got != orig {
			t.Fatalf("line %d: patching changed more than the id:\n got %+v\nwant %+v", i, got, orig)
		}
	}
	for _, bad := range []string{"", "t12345678", "x123456789", "t12345678a", "t1234567890"} {
		if _, ok := parseID([]byte(bad)); ok {
			t.Errorf("parseID(%q) accepted", bad)
		}
	}
}

// fakeIngest is /v1/ingest with the real handler's contract — a 429 reports
// the accepted+malformed prefix and takes nothing after it — and a queue
// that takes at most `room` tweets per request.
type fakeIngest struct {
	mu       sync.Mutex
	room     int
	got      []string
	requests int
}

func (f *fakeIngest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r.URL.Path == "/v1/stats" {
		json.NewEncoder(w).Encode(serve.Stats{Processed: int64(len(f.got)), Accepted: int64(len(f.got))})
		return
	}
	f.requests++
	var resp serve.IngestResponse
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		tw, err := twitterdata.Unmarshal(sc.Bytes())
		switch {
		case resp.Rejected > 0 || int(resp.Accepted) == f.room:
			resp.Rejected++
		case err != nil:
			resp.Malformed++
		default:
			resp.Accepted++
			f.got = append(f.got, tw.IDStr)
		}
	}
	if resp.Rejected > 0 {
		w.WriteHeader(http.StatusTooManyRequests)
	}
	json.NewEncoder(w).Encode(resp)
}

// A sender that is refused part of a batch resends exactly the refused
// suffix: every tweet arrives once, in order, however the 429s fall.
func TestResendRejectedSuffix(t *testing.T) {
	if got := resendFrom(outcome{accepted: 120, malformed: 3, rejected: 77}); got != 123 {
		t.Fatalf("resendFrom = %d, want 123", got)
	}
	c, err := buildServingCorpus(5, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeIngest{room: 70} // 100-tweet batches go through as 70+30
	ts := httptest.NewServer(fake)
	defer ts.Close()
	srv := &server{base: ts.URL, client: ts.Client(), exited: make(chan struct{})}
	l := &loader{srv: srv, corpus: c, kind: kindFirehose, senders: 1, perReq: ingestBatch, client: ts.Client()}
	const n = 1030
	if err := l.warm(n); err != nil {
		t.Fatal(err)
	}
	if len(fake.got) != n {
		t.Fatalf("server took %d tweets, want %d", len(fake.got), n)
	}
	for i, id := range fake.got {
		if want := fmt.Sprintf("t%09d", i); id != want {
			t.Fatalf("tweet %d arrived as %s, want %s", i, id, want)
		}
	}
	if want := 10*2 + 1; fake.requests != want {
		t.Errorf("%d requests, want %d (ten full batches in two sends each, one short batch)", fake.requests, want)
	}
}

const sseStream = ": connected\n\n" +
	"id: 1\nevent: alert\ndata: {\"seq\":1,\"tweet_id\":\"t000000042\",\"text\":\"say \\\"tweet_id\\\":\\\"t000000099\\\"\"}\n\n" +
	": heartbeat\n\n" +
	"id: 2\nevent: session\ndata: {\"seq\":2,\"user_id\":\"u0000007\"}\n\n" +
	"id: 3\nevent: escalation\ndata: {\"seq\":3,\"user_id\":\"u0000007\"}\n\n" +
	"id: 4\nevent: alert\r\ndata: {\"seq\":4,\"tweet_id\":\"t000000043\"}\r\n\r\n"

func TestSSEFrames(t *testing.T) {
	r := bufio.NewReader(strings.NewReader(sseStream))
	var buf []byte
	var events []string
	var seqs []uint64
	for {
		f, err := readFrame(r, &buf)
		if err != nil {
			break
		}
		events = append(events, f.event)
		if seq, ok := alertSeq(f.data); ok {
			seqs = append(seqs, seq)
		}
	}
	if got := strings.Join(events, ","); got != "alert,session,escalation,alert" {
		t.Errorf("events %q: comments and heartbeats must not dispatch", got)
	}
	if len(seqs) != 2 || seqs[0] != 42 || seqs[1] != 43 {
		t.Errorf("alert sequence numbers %v, want [42 43]", seqs)
	}
}

// The subscriber keeps alerts only: session and escalation events are about
// users, not tweets.
func TestAlertReaderIgnoresUserVerdicts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sseStream)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer ts.Close()
	a, err := subscribeAlerts(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	for deadline := time.Now().Add(5 * time.Second); a.count() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	got, err := a.since(0)
	if err != nil || len(got) != 2 || got[0].seq != 42 || got[1].seq != 43 {
		t.Fatalf("arrivals %+v, err %v; want tweets 42 and 43", got, err)
	}
}

func TestCorpusDeterminismClockAndSkew(t *testing.T) {
	const n = 4000
	a, err := buildServingCorpus(11, 0.8, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildServingCorpus(11, 0.8, n)
	other, _ := buildServingCorpus(12, 0.8, n)
	same := 0
	for i := range a.lines {
		if !bytes.Equal(a.lines[i], b.lines[i]) {
			t.Fatalf("seed 11 built line %d twice differently", i)
		}
		if bytes.Equal(a.lines[i], other.lines[i]) {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("seeds 11 and 12 share %d of %d lines", same, n)
	}
	if share := float64(a.labeled) / n; share < 0.07 || share > 0.13 {
		t.Errorf("labeled share %.3f, want about %.2f", share, labeledShare)
	}

	users := make(map[string]int)
	texts := make(map[string]int)
	var last time.Time
	for i, line := range a.lines {
		tw, err := twitterdata.Unmarshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if at := tw.PostedAt(); at.Before(last) {
			t.Fatalf("line %d: event time went back from %v to %v", i, last, at)
		} else {
			last = at
		}
		if tw.AccountAgeDays() <= 0 {
			t.Fatalf("line %d: account age %v after the clock rewrite", i, tw.AccountAgeDays())
		}
		users[tw.User.IDStr]++
		texts[tw.Text]++
	}
	if span := last.Sub(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)); span != (n-1)*clockStepMilli/1000*time.Second {
		t.Errorf("clock spans %v over %d tweets at %d ms a tweet", span, n, clockStepMilli)
	}
	top := 0
	for _, k := range users {
		top = max(top, k)
	}
	if len(users) >= n || len(users) < n/10 || top < n/100 {
		t.Errorf("%d users over %d tweets, busiest has %d: not the Zipf skew the corpus promises", len(users), n, top)
	}
	if len(texts) > n*4/10 || len(texts) < n*2/10 {
		t.Errorf("%d distinct texts in %d tweets with 0.8 of the unlabeled ones retweets", len(texts), n)
	}
	most := 0
	for _, k := range texts {
		most = max(most, k)
	}
	if most > n/25 {
		t.Errorf("one text makes up %d of %d tweets: a single text must not decide the run", most, n)
	}
	unique, _ := buildServingCorpus(11, 0, n)
	texts = make(map[string]int)
	for _, line := range unique.lines {
		tw, _ := twitterdata.Unmarshal(line)
		texts[tw.Text]++
	}
	if len(texts) < n*99/100 {
		t.Errorf("%d distinct texts in %d tweets without retweets", len(texts), n)
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (aggro serve) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 100 200 300")
	if got, err := parseStatCPU(stat); err != nil || got != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2.0 s from 150+50 ticks", got, err)
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestMetricsScrape(t *testing.T) {
	scrape := func(a, b, c, count int) *promText {
		p, err := parseMetrics(strings.NewReader(fmt.Sprintf(`# HELP x
redhanded_alerts_dropped_total 7
redhanded_shard_drain_batch_sum{shard="0"} 10
redhanded_shard_drain_batch_sum{shard="1"} 32
redhanded_trace_stage_seconds_bucket{stage="queue",le="0.001"} %d
redhanded_trace_stage_seconds_bucket{stage="queue",le="0.002"} %d
redhanded_trace_stage_seconds_bucket{stage="queue",le="0.004"} %d
redhanded_trace_stage_seconds_bucket{stage="queue",le="+Inf"} %d
redhanded_trace_stage_seconds_count{stage="queue"} %d
`, a, b, c, count, count)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before, after := scrape(100, 100, 100, 100), scrape(150, 190, 200, 200)
	if after.sums["redhanded_alerts_dropped_total"] != 7 || after.sums["redhanded_shard_drain_batch_sum"] != 42 {
		t.Errorf("sums %v", after.sums)
	}
	const series = `redhanded_trace_stage_seconds_bucket{stage="queue"`
	// Between the scrapes: 50 observations under 1 ms, 40 in 1-2 ms, 10 in 2-4 ms.
	if got := quantileSince(before, after, series, 0.5); got != 0.001 {
		t.Errorf("p50 since = %v, want 0.001", got)
	}
	if got, want := quantileSince(before, after, series, 0.95), 0.003; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("p95 since = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	tps := metricDef{name: "throughput_tps", better: "higher", bound: 0.08}
	lat := metricDef{name: "verdict_latency_p50_ms", better: "lower", bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		base, change float64
		want         string
	}{
		{tps, 100, 93, "within"}, {tps, 100, 91, "exceeds"}, {tps, 100, 150, "within"},
		{lat, 4, 4.3, "within"}, {lat, 4, 4.5, "exceeds"}, {lat, 4, 2, "within"},
	} {
		if got, _ := judge(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.base, c.change, got, c.want)
		}
	}
}

// BENCHMARK.json is written by hand; the tables in workloads.go are what the
// program prints. They have to say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
