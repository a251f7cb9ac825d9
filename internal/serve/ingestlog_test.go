package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

// drainServer drains s with a generous timeout and returns the barrier's
// verdict.
func drainServer(t *testing.T, s *Server) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// walOptions returns server options with a fresh WAL opened over dir.
func walOptions(t *testing.T, dir string, shards int, logOpts ingestlog.Options) (Options, *ingestlog.Log) {
	t.Helper()
	logOpts.Dir = dir
	logOpts.Partitions = shards
	l, err := ingestlog.Open(logOpts)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Shards = shards
	opts.Log = l
	return opts, l
}

// walTweets builds a deterministic mixed stream: labeled tweets from the
// generator's three classes, with every fifth unlabeled.
func walTweets(n int) []twitterdata.Tweet {
	g := twitterdata.NewGenerator(42, 10)
	out := make([]twitterdata.Tweet, n)
	for i := range out {
		out[i] = g.Tweet(i%3, i%10)
		if i%5 == 0 {
			out[i].Label = ""
		}
	}
	return out
}

func postNDJSON(t *testing.T, url string, tweets []twitterdata.Tweet) {
	t.Helper()
	var body bytes.Buffer
	for i := range tweets {
		blob, err := tweets[i].Marshal()
		if err != nil {
			t.Error(err)
			return
		}
		body.Write(blob)
		body.WriteByte('\n')
	}
	resp, err := http.Post(url+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ingest: status %d", resp.StatusCode)
	}
}

// pipelineFingerprint captures every piece of replayable shard state the
// checkpoint/replay cycle must reproduce exactly. (The raw checkpoint
// bytes are not comparable — the blob codecs serialize maps in iteration
// order — so equality is asserted semantically, field by field.)
type pipelineFingerprint struct {
	Processed   int64
	LogOffset   int64
	Report      string
	PredDist    []float64
	SessionV    int64
	Escalations int64
	ActiveUsers int
}

// offer is admit for tests that hold a Tweet rather than wire bytes: it
// marshals the tweet to the NDJSON line a client would have sent.
func (s *Server) offer(j job) (*shard, bool, error) {
	raw, err := j.tweet.Marshal()
	if err != nil {
		panic(err)
	}
	return s.admit(j, raw)
}

func fingerprint(p *core.Pipeline) pipelineFingerprint {
	c := p.Counts()
	return pipelineFingerprint{
		Processed:   c.Processed,
		LogOffset:   c.LogOffset,
		Report:      fmt.Sprintf("%+v", p.Summary()),
		PredDist:    p.PredictedDistribution(),
		SessionV:    c.SessionVerdicts,
		Escalations: c.Escalations,
		ActiveUsers: c.ActiveUsers,
	}
}

// TestReplayExactlyOnceUnderConcurrentIngest is the exactly-once battery:
// tweets are ingested from concurrent clients into a WAL-backed server, a
// checkpoint is taken mid-stream while ingestion continues, and the
// server is then abandoned without a final checkpoint (the SIGKILL
// scenario — its post-checkpoint state exists only in the log). A fresh
// server restores the mid-stream checkpoint and replays the log; its
// final state must match the uninterrupted run exactly: per-shard
// processed counts and applied offsets, the evaluation matrix, predicted
// distributions, per-user offense counts and escalation verdicts, and the
// model itself (probed functionally, prediction by prediction).
func TestReplayExactlyOnceUnderConcurrentIngest(t *testing.T) {
	const shards, n, clients = 2, 600, 4
	logDir, ckptDir := t.TempDir(), t.TempDir()
	tweets := walTweets(n)

	optsA, logA := walOptions(t, logDir, shards, ingestlog.Options{
		SegmentBytes: 16 << 10, // force several segments per partition
		Fsync:        ingestlog.FsyncOff,
	})
	a := NewServer(optsA)
	ts := httptest.NewServer(a)

	// Concurrent ingest: disjoint slices from several clients, batches
	// small enough to interleave.
	var wg sync.WaitGroup
	per := n / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(chunk []twitterdata.Tweet) {
			defer wg.Done()
			for len(chunk) > 0 {
				b := chunk
				if len(b) > 25 {
					b = b[:25]
				}
				postNDJSON(t, ts.URL, b)
				chunk = chunk[len(b):]
			}
		}(tweets[c*per : (c+1)*per])
	}

	// Mid-stream checkpoint: wait for some progress, then cut while the
	// clients are still posting. Each shard's cut lands at whatever offset
	// it happens to have applied — replay must absorb the difference.
	waitProcessed(t, a, n/4)
	if err := a.Checkpoint(ckptDir); err != nil {
		t.Fatalf("mid-stream checkpoint: %v", err)
	}
	wg.Wait()
	waitProcessed(t, a, int64(n))

	// The uninterrupted run's final state, then SIGKILL-style abandon: no
	// drain barrier failure expected, but crucially NO final checkpoint —
	// everything after the mid-stream cut must come back from the log.
	ts.Close()
	if err := drainServer(t, a); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wantTotal := int64(0)
	wantFP := make([]pipelineFingerprint, shards)
	for i := 0; i < shards; i++ {
		wantFP[i] = fingerprint(a.Pipeline(i))
		wantTotal += wantFP[i].Processed
	}
	if wantTotal != n {
		t.Fatalf("uninterrupted run processed %d tweets, want %d", wantTotal, n)
	}
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: fresh server, restore the mid-stream cut, replay the rest.
	optsB, logB := walOptions(t, logDir, shards, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	optsB.Registry = metrics.NewRegistry()
	b := NewServer(optsB)
	defer logB.Close()
	if err := b.Restore(ckptDir); err != nil {
		t.Fatalf("restore: %v", err)
	}
	restoredTotal := int64(0)
	for i := 0; i < shards; i++ {
		restoredTotal += b.Pipeline(i).Processed()
	}
	if restoredTotal >= int64(n) {
		t.Fatalf("mid-stream checkpoint already held all %d tweets; nothing would be replayed", n)
	}
	replayed, err := b.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := int64(n) - restoredTotal; replayed != want {
		t.Fatalf("replayed %d records, want %d (checkpoint held %d of %d)", replayed, want, restoredTotal, n)
	}

	for i := 0; i < shards; i++ {
		if got := fingerprint(b.Pipeline(i)); !reflect.DeepEqual(got, wantFP[i]) {
			t.Errorf("shard %d diverged after replay:\n got %+v\nwant %+v", i, got, wantFP[i])
		}
	}

	// Per-user state, user by user: offense counts, suspension flags,
	// session/escalation verdict totals, windows, scores.
	for i := range tweets {
		id := tweets[i].User.IDStr
		sh := ShardFor(id, shards)
		sa, oka := a.Pipeline(sh).LookupUser(id)
		sb, okb := b.Pipeline(sh).LookupUser(id)
		if oka != okb {
			t.Fatalf("user %s: present=%v in uninterrupted run, %v after replay", id, oka, okb)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("user %s diverged after replay:\n got %+v\nwant %+v", id, sb, sa)
		}
	}

	// Functional model equality: both servers' shard models must score a
	// probe set identically (the extractor, normalizer, and classifier all
	// feed the result, so a mismatch in any of them surfaces here).
	probes := walTweets(50)
	for i := range probes {
		sh := ShardFor(probes[i].User.IDStr, shards)
		ra, rb := a.Pipeline(sh).Process(&probes[i]), b.Pipeline(sh).Process(&probes[i])
		if !reflect.DeepEqual(ra.Instance.X, rb.Instance.X) {
			t.Fatalf("probe %d: feature vectors diverged", i)
		}
		if !reflect.DeepEqual(ra.Prediction, rb.Prediction) {
			t.Fatalf("probe %d: predictions diverged: %v vs %v", i, ra.Prediction, rb.Prediction)
		}
	}
}

// TestDrainBarrierDetectsLostLoggedTweet is the regression test for the
// log-offset-aware drain barrier: a server whose shard loops never ran
// has accepted (logged + enqueued) a tweet that will never be applied.
// Draining such a server must fail loudly — checkpointing that state
// would silently drop a durably logged tweet from replay.
func TestDrainBarrierDetectsLostLoggedTweet(t *testing.T) {
	opts, l := walOptions(t, t.TempDir(), 2, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	defer l.Close()
	s := newServer(opts, false) // stalled shards: queued jobs are never drained
	if _, ok, err := s.offer(job{tweet: makeTweet("1", "u-barrier", "hello", "")}); err != nil || !ok {
		t.Fatalf("offer: ok=%v err=%v", ok, err)
	}
	err := drainServer(t, s)
	if err == nil {
		t.Fatal("drain succeeded despite a logged tweet the pipeline never applied")
	}
	want := "applied log offset -1, but offset 0 was enqueued"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("drain error %q does not mention the offset gap %q", err, want)
	}
}

// TestDrainBarrierPassesAfterCleanDrain is the barrier's happy path: with
// running shard loops every logged tweet is applied before Drain returns.
func TestDrainBarrierPassesAfterCleanDrain(t *testing.T) {
	opts, l := walOptions(t, t.TempDir(), 2, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	defer l.Close()
	s := NewServer(opts)
	for i := 0; i < 40; i++ {
		tw := makeTweet(fmt.Sprint(i), fmt.Sprintf("u%d", i%7), "barrier pass", "")
		if _, ok, err := s.offer(job{tweet: tw}); err != nil || !ok {
			t.Fatalf("offer %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := drainServer(t, s); err != nil {
		t.Fatalf("drain: %v", err)
	}
	applied := int64(0)
	for i := 0; i < s.Shards(); i++ {
		applied += s.Pipeline(i).LogOffset() + 1
	}
	if applied != 40 {
		t.Fatalf("applied %d logged offsets, want 40", applied)
	}
}

// TestWALShedsBeforeAppend pins the no-duplicates-on-retry property: a
// tweet shed because the queue is full must not have been appended to the
// log, so the client's retry cannot become a second log record.
func TestWALShedsBeforeAppend(t *testing.T) {
	opts, l := walOptions(t, t.TempDir(), 1, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	defer l.Close()
	opts.QueueDepth = 1
	s := newServer(opts, false) // stalled: the queue never drains
	if _, ok, err := s.offer(job{tweet: makeTweet("1", "u1", "fills the queue", "")}); err != nil || !ok {
		t.Fatalf("first offer: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.offer(job{tweet: makeTweet("2", "u1", "shed", "")}); err != nil || ok {
		t.Fatalf("second offer: ok=%v err=%v, want queue-full shed", ok, err)
	}
	if got := l.Stats()[0].Appended; got != 0 {
		t.Fatalf("log holds offsets through %d; the shed tweet was appended", got)
	}
}

// TestWALBackpressureSurfacesAs429 drives the fsync-budget stall through
// the HTTP ingest path: once the unsynced budget is exhausted the server
// answers 429 with Retry-After, the stalled lines are counted rejected,
// and nothing past the stall enters the log (the retry prefix contract).
func TestWALBackpressureSurfacesAs429(t *testing.T) {
	opts, l := walOptions(t, t.TempDir(), 1, ingestlog.Options{
		Fsync:       ingestlog.FsyncInterval,
		FsyncEvery:  time.Hour, // the ticker never fires during the test
		MaxUnsynced: 256,
	})
	defer l.Close()
	opts.QueueDepth = 1024
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer drainServer(t, s)

	tweets := walTweets(40)
	var body bytes.Buffer
	for i := range tweets {
		blob, err := tweets[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		body.Write(blob)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, ir)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ir.Accepted == 0 || ir.Rejected == 0 || ir.Accepted+ir.Rejected+ir.Malformed != int64(len(tweets)) {
		t.Fatalf("prefix contract broken: %+v over %d lines", ir, len(tweets))
	}
	if got := l.Stats()[0].Appended; got != ir.Accepted-1 {
		t.Fatalf("log holds offsets through %d, but %d lines were accepted", got, ir.Accepted)
	}

	// Sync-then-retry rounds drain the remainder: each SyncAll resets the
	// unsynced budget, and each retry resumes at its own accepted prefix —
	// exactly the client protocol the 429 contract prescribes.
	remaining := tweets[ir.Accepted:]
	for round := 0; len(remaining) > 0; round++ {
		if round > 100 {
			t.Fatalf("%d tweets still unaccepted after %d retry rounds", len(remaining), round)
		}
		l.SyncAll()
		var retry bytes.Buffer
		for i := range remaining {
			blob, err := remaining[i].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			retry.Write(blob)
			retry.WriteByte('\n')
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &retry)
		if err != nil {
			t.Fatal(err)
		}
		var rr IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rr.Malformed != 0 {
			t.Fatalf("retry round %d: %d malformed lines", round, rr.Malformed)
		}
		remaining = remaining[rr.Accepted:]
	}
	if got := l.Stats()[0].Appended; got != int64(len(tweets))-1 {
		t.Fatalf("after retries the log holds offsets through %d, want %d", got, len(tweets)-1)
	}
}

// TestDrainRacingIngest pins the admission protocol against Drain, with
// and without a WAL: /v1/ingest and /v1/classify clients run while Drain
// closes the shards. The handlers are called directly, so a send on a
// closed queue would crash the test rather than be recovered by net/http.
// Every line answered as accepted must be applied, every request sent
// after Drain returned must get 503, and the drain barrier must pass.
func TestDrainRacingIngest(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			opts := testOptions()
			if wal {
				var l *ingestlog.Log
				opts, l = walOptions(t, t.TempDir(), 4, ingestlog.Options{Fsync: ingestlog.FsyncOff})
				defer l.Close()
			}
			opts.QueueDepth = 16
			s := NewServer(opts)

			tweets := walTweets(240)
			lines := make([][]byte, len(tweets))
			for i := range tweets {
				blob, err := tweets[i].Marshal()
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = blob
			}
			var accepted atomic.Int64
			var drained atomic.Bool
			ready := make(chan struct{}) // closed once 64 lines are accepted
			var readyOnce sync.Once
			accept := func(n int64) {
				if accepted.Add(n) >= 64 {
					readyOnce.Do(func() { close(ready) })
				}
			}
			// Each client posts until it has sent one request after Drain
			// returned, which must be refused with 503.
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; ; i += 4 {
						after := drained.Load()
						path, body := "/v1/classify", lines[i%len(lines)]
						if c%2 == 0 {
							lo := (i * 8) % len(lines)
							path, body = "/v1/ingest", bytes.Join(lines[lo:lo+8], []byte("\n"))
						}
						rec := httptest.NewRecorder()
						s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
						switch {
						case after:
							if rec.Code != http.StatusServiceUnavailable {
								t.Errorf("%s after drain: status %d, want 503", path, rec.Code)
							}
							return
						case path == "/v1/classify":
							if rec.Code == http.StatusOK {
								accept(1)
							}
						default:
							var ir IngestResponse
							if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
								t.Error(err)
								return
							}
							accept(ir.Accepted)
						}
					}
				}(c)
			}
			<-ready
			err := drainServer(t, s)
			drained.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatalf("drain barrier: %v", err)
			}
			var processed int64
			for i := 0; i < s.Shards(); i++ {
				processed += s.Pipeline(i).Processed()
			}
			if processed != accepted.Load() || processed != s.accepted.Value() {
				t.Fatalf("processed %d tweets, clients saw %d accepted, server counted %d",
					processed, accepted.Load(), s.accepted.Value())
			}
		})
	}
}
