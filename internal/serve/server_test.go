package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

func testOptions() Options {
	opts := core.DefaultOptions()
	opts.SampleStep = 0
	return Options{
		Pipeline: opts,
		Shards:   4,
		Registry: metrics.NewRegistry(),
	}
}

func makeTweet(id, user, text, label string) twitterdata.Tweet {
	return twitterdata.Tweet{
		IDStr:     id,
		Text:      text,
		CreatedAt: "Mon Jun 01 12:00:00 +0000 2020",
		User: twitterdata.User{
			IDStr:      user,
			ScreenName: "u" + user,
			CreatedAt:  "Wed Jan 01 00:00:00 +0000 2014",
		},
		Label: label,
	}
}

func ndjson(t *testing.T, tweets []twitterdata.Tweet) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	for i := range tweets {
		blob, err := tweets[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b.Write(blob)
		b.WriteByte('\n')
	}
	return &b
}

// processedTotal is how many tweets the server's shards have applied.
func processedTotal(s *Server) int64 {
	var total int64
	for i := 0; i < s.Shards(); i++ {
		total += s.Pipeline(i).Processed()
	}
	return total
}

// waitProcessed polls until the server has run n tweets through its shards.
func waitProcessed(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if processedTotal(s) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d tweets to be processed", n)
}

func TestShardForStableAndSpread(t *testing.T) {
	hits := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		user := fmt.Sprintf("user-%d", i)
		sh := ShardFor(user, 8)
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardFor(%q, 8) = %d out of range", user, sh)
		}
		if again := ShardFor(user, 8); again != sh {
			t.Fatalf("ShardFor not deterministic: %d vs %d", sh, again)
		}
		hits[sh] = true
	}
	if len(hits) != 8 {
		t.Fatalf("1000 users hit only %d of 8 shards", len(hits))
	}
}

func TestShardAffinity(t *testing.T) {
	s := NewServer(testOptions())
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// 40 tweets from 10 users; every user's tweets must land on the one
	// shard ShardFor names, visible as that shard's processed count.
	perShard := make(map[int]int64)
	var tweets []twitterdata.Tweet
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("%d", 1000+u)
		perShard[ShardFor(user, s.Shards())] += 4
		for k := 0; k < 4; k++ {
			tweets = append(tweets, makeTweet(fmt.Sprintf("t%d-%d", u, k), user, "hello world", ""))
		}
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != int64(len(tweets)) || ir.Rejected != 0 || ir.Malformed != 0 {
		t.Fatalf("ingest = %+v, want all %d accepted", ir, len(tweets))
	}
	waitProcessed(t, s, int64(len(tweets)))
	for i := 0; i < s.Shards(); i++ {
		if got := s.Pipeline(i).Processed(); got != perShard[i] {
			t.Errorf("shard %d processed %d tweets, want %d (affinity broken)", i, got, perShard[i])
		}
	}
}

func TestBackpressure429(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.QueueDepth = 2
	// Shard loops never start: the queue fills and stays full.
	s := newServer(opts, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var tweets []twitterdata.Tweet
	for i := 0; i < 5; i++ {
		tweets = append(tweets, makeTweet(fmt.Sprint(i), "7", "text", ""))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 2 || ir.Rejected != 3 {
		t.Fatalf("ingest = %+v, want accepted=2 rejected=3", ir)
	}

	// The synchronous path also sheds load instead of queueing unboundedly.
	blob, _ := tweets[0].Marshal()
	resp2, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("classify status = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("classify 429 missing Retry-After")
	}
}

func TestClassifySynchronous(t *testing.T) {
	opts := testOptions()
	s := NewServer(opts)
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	tw := makeTweet("1", "42", "you are all wonderful", twitterdata.LabelNormal)
	blob, _ := tw.Marshal()
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.TweetID != "1" || !cr.Tested {
		t.Fatalf("classify = %+v, want tweet_id=1 tested=true", cr)
	}
	if cr.Shard != ShardFor("42", s.Shards()) {
		t.Fatalf("classify ran on shard %d, want %d", cr.Shard, ShardFor("42", s.Shards()))
	}
	if cr.Predicted == "" {
		t.Fatal("classify returned empty prediction")
	}

	// Malformed body is a client error, not a 500.
	resp2, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed classify status = %d, want 400", resp2.StatusCode)
	}
}

func TestSSEAlertDelivery(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.Pipeline.AlertThreshold = 0.1
	s := NewServer(opts)
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/alerts", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// Teach the model that the stream is hateful, then keep posting: once
	// the majority class flips, predictions turn aggressive and alert.
	var tweets []twitterdata.Tweet
	for i := 0; i < 80; i++ {
		tweets = append(tweets, makeTweet(fmt.Sprint(i), "666", "you are a worthless idiot and i hate you", twitterdata.LabelHateful))
	}
	resp2, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no alert event received: %v", sc.Err())
	}
	var ev struct {
		UserID     string  `json:"user_id"`
		Label      string  `json:"label"`
		Confidence float64 `json:"confidence"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("alert payload %q: %v", data, err)
	}
	if ev.UserID != "666" || ev.Label == "" || ev.Label == "normal" {
		t.Fatalf("alert = %+v, want aggressive label for user 666", ev)
	}

	// Drain must terminate the stream, or graceful HTTP shutdown would
	// wait on it forever.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	} // must reach EOF before the 10s request context expires
	if ctx.Err() != nil {
		t.Fatal("SSE stream did not close on Drain")
	}
}

func TestMetricsExposition(t *testing.T) {
	opts := testOptions()
	opts.Shards = 2
	s := NewServer(opts)
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	tw := makeTweet("1", "9", "hello", "")
	blob, _ := tw.Marshal()
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(resp2.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", resp2.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE redhanded_ingest_accepted_total counter",
		"redhanded_ingest_accepted_total 1",
		"# TYPE redhanded_shard_queue_depth gauge",
		`redhanded_shard_queue_depth{shard="0"}`,
		`redhanded_shard_queue_depth{shard="1"}`,
		"# TYPE redhanded_classify_latency_seconds histogram",
		`redhanded_classify_latency_seconds_bucket{outcome="ok",le="+Inf"} 1`,
		`redhanded_classify_latency_seconds_count{outcome="ok"} 1`,
		`redhanded_shard_busy_seconds_total{shard=`,
		`redhanded_http_requests_total{path="/v1/classify"} 1`,
		"# TYPE redhanded_sse_flush_events histogram",
		// The pipelines' own counts, sampled on the server's registry.
		"# TYPE redhanded_alerts_raised_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s := NewServer(testOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()

	var tweets []twitterdata.Tweet
	for i := 0; i < 10; i++ {
		tweets = append(tweets, makeTweet(fmt.Sprint(i), fmt.Sprint(i%3), "some text", twitterdata.LabelNormal))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, 10)

	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Processed != 10 || st.Accepted != 10 || len(st.PerShard) != 4 {
		t.Fatalf("stats = %+v, want 4 shards with 10 processed", st)
	}
	var labeled int64
	for _, sh := range st.PerShard {
		labeled += sh.Report.Instances
		if sh.QueueCap != 1024 {
			t.Fatalf("shard %d queue_cap = %d, want default 1024", sh.Shard, sh.QueueCap)
		}
	}
	if labeled != 10 {
		t.Fatalf("prequential instances = %d, want 10", labeled)
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp3.StatusCode)
	}

	// After Drain: ingestion refuses, health reports draining.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp4, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets[:1]))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest = %d, want 503", resp4.StatusCode)
	}
	resp5, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", resp5.StatusCode)
	}
}

func TestGracefulShutdownCheckpointRestore(t *testing.T) {
	opts := testOptions()
	opts.Shards = 2
	dir := t.TempDir()

	a := NewServer(opts)
	tsA := httptest.NewServer(a)
	var tweets []twitterdata.Tweet
	labels := []string{twitterdata.LabelNormal, twitterdata.LabelAbusive, twitterdata.LabelHateful}
	for i := 0; i < 60; i++ {
		tweets = append(tweets, makeTweet(fmt.Sprint(i), fmt.Sprint(i%7), "stream me harder", labels[i%3]))
	}
	resp, err := http.Post(tsA.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, a, 60)
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	// Restore into a fresh server: per-shard learned state must carry over.
	b := newServer(opts, true)
	if err := b.Restore(dir); err != nil {
		t.Fatal(err)
	}
	// The BoW is read through the component accessor: after Drain.
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, want := b.Pipeline(i).Processed(), a.Pipeline(i).Processed(); got != want {
			t.Errorf("shard %d restored processed = %d, want %d", i, got, want)
		}
		if got, want := b.Pipeline(i).Summary(), a.Pipeline(i).Summary(); got != want {
			t.Errorf("shard %d restored summary = %+v, want %+v", i, got, want)
		}
		if got, want := b.Pipeline(i).Extractor().BoW().Size(), a.Pipeline(i).Extractor().BoW().Size(); got != want {
			t.Errorf("shard %d restored BoW size = %d, want %d", i, got, want)
		}
	}

	// A different shard count must refuse the checkpoint: the hash routing
	// would send users to shards that never learned from them.
	bad := testOptions()
	bad.Shards = 3
	c := newServer(bad, false)
	if err := c.Restore(dir); err == nil {
		t.Fatal("restore with mismatched shard count should fail")
	}
}

// TestClassifyLatencyOutcomes proves every terminal classify outcome lands
// on the latency histogram under its own outcome label: rejected and
// malformed requests are no longer invisible, and none of them pollute the
// accepted-path ("ok") series.
func TestClassifyLatencyOutcomes(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.QueueDepth = 1
	// Shard loops never start: the queue fills and stays full.
	s := newServer(opts, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	count := func(outcome string) int64 {
		return s.latency[outcome].Count()
	}

	// bad_request: undecodable body.
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := count(outcomeBadRequest); got != 1 {
		t.Errorf("bad_request latency count = %d, want 1", got)
	}

	// queue_full: the first request fills the stalled shard's queue and is
	// later canceled (covering the canceled outcome); the second is shed
	// with 429.
	tw := makeTweet("1", "9", "text", "")
	blob, _ := tw.Marshal()
	ctx, cancel := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/classify", bytes.NewReader(blob))
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.shards[0].queue) == 0 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := count(outcomeQueueFull); got != 1 {
		t.Errorf("queue_full latency count = %d, want 1", got)
	}

	// canceled: the queued request's client goes away; its wait time lands
	// on the canceled series, not the ok one.
	cancel()
	<-firstDone
	deadline = time.Now().Add(2 * time.Second)
	for count(outcomeCanceled) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled outcome never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	// ok must not have been touched by any of the outcomes above.
	if got := count(outcomeOK); got != 0 {
		t.Errorf("ok latency count = %d, want 0", got)
	}
}

// TestClassifyLatencyDraining proves the 503 drain path records latency
// under the draining outcome.
func TestClassifyLatencyDraining(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	tw := makeTweet("1", "9", "text", "")
	blob, _ := tw.Marshal()
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := s.latency[outcomeDraining].Count(); got != 1 {
		t.Errorf("draining latency count = %d, want 1", got)
	}
}
