package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/twitterdata"
)

// TestIngestMixedBatchMatchesPipelines posts one NDJSON batch — valid
// lines, malformed lines, blank lines — and demands the counts the batch
// implies (a blank line is malformed, so Accepted+Malformed stays a prefix
// length) and, after processing, per-shard pipeline fingerprints equal to
// in-process pipelines fed the valid lines through the encoding/json
// oracle. The fuzz test proves the decoder agrees with encoding/json tweet
// by tweet; this proves the server agrees end to end.
func TestIngestMixedBatchMatchesPipelines(t *testing.T) {
	tweets := walTweets(120)
	opts := testOptions()
	opts.Shards = 2
	want := make([]*core.Pipeline, opts.Shards)
	for i := range want {
		want[i] = core.NewPipeline(opts.Pipeline)
	}
	var body bytes.Buffer
	var valid, malformed int64
	for i := range tweets {
		switch {
		case i%17 == 0:
			body.WriteString("{\"id_str\": broken\n")
			malformed++
		case i%23 == 0:
			body.WriteByte('\n')
			malformed++
		default:
			blob, err := tweets[i].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			body.Write(blob)
			body.WriteByte('\n')
			tw, err := twitterdata.Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			want[ShardFor(tw.User.IDStr, opts.Shards)].Process(&tw)
			valid++
		}
	}

	s := NewServer(opts)
	defer drainServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := jsonDecodeBody(resp, &ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir != (IngestResponse{Accepted: valid, Malformed: malformed}) {
		t.Fatalf("status %d, response %+v; want 200 with %d accepted, %d malformed", resp.StatusCode, ir, valid, malformed)
	}
	waitProcessed(t, s, ir.Accepted)
	for i := range want {
		if got, want := fingerprint(s.Pipeline(i)), fingerprint(want[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d diverges from the in-process pipeline:\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestClassifyDecodeBehavior checks the synchronous endpoint's decode
// contract: a valid document classifies, a malformed document is 400, and
// trailing garbage after the document is rejected (a deliberate tightening
// over json.NewDecoder's stream semantics).
func TestClassifyDecodeBehavior(t *testing.T) {
	s := NewServer(testOptions())
	defer drainServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	post := func(body string) (int, ClassifyResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var cr ClassifyResponse
		_ = jsonDecodeBody(resp, &cr)
		return resp.StatusCode, cr
	}
	tw := makeTweet("900", "77", "you are a worthless idiot", "")
	blob, err := tw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if status, cr := post(string(blob)); status != http.StatusOK || cr.TweetID != "900" {
		t.Fatalf("classify status %d, response %+v", status, cr)
	}
	if status, _ := post(`{"id_str": nope}`); status != http.StatusBadRequest {
		t.Fatalf("malformed classify status %d, want 400", status)
	}
	if status, _ := post(string(blob) + "trailing"); status != http.StatusBadRequest {
		t.Fatalf("trailing garbage accepted: status %d", status)
	}
}

// TestIngestRejectedBatchArenaSteadyState is the arena-hygiene leak test:
// tweets that decode successfully but never reach a pipeline (queue-full
// shed) and malformed lines that fail mid-decode must not accrete arena
// chunks. It drives a stalled server (shard goroutines never started, a
// depth-1 queue pre-filled) through a 10k-line malformed batch and 10k
// decoded-then-shed offers and requires the process-wide chunk counter
// to stay flat, up to the decoders the garbage collector takes out of the
// pool — the pooled decoder reclaims every uncommitted byte.
func TestIngestRejectedBatchArenaSteadyState(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.QueueDepth = 1
	s := newServer(opts, false) // stalled: the queue never drains
	if _, ok, err := s.offer(job{tweet: makeTweet("1", "u1", "fills the queue", "")}); err != nil || !ok {
		t.Fatalf("priming offer: ok=%v err=%v", ok, err)
	}

	postLines := func(lines string) IngestResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(lines))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var ir IngestResponse
		if err := jsonDecodeReader(rec.Body, &ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}

	shed := makeTweet("2", "u2", "shed every time", "")
	blob, err := shed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	line := string(blob) + "\n"

	// Warm the decoder pool and the body-buffer pool before measuring.
	postLines(line)
	base := twitterdata.ReadDecodeStats().ArenaChunks

	// One 10k-line batch of malformed documents through one pooled
	// decoder: every line fails inside DecodeInto and auto-rewinds its
	// partial interning, so the request's single arena stays flat. This
	// assertion holds under -race too — no pool churn happens mid-request.
	malformed := strings.Repeat("{\"id_str\": broken}\n", 10_000)
	if ir := postLines(malformed); ir.Malformed != 10_000 {
		t.Fatalf("malformed batch: %+v, want 10000 malformed", ir)
	}
	if got := twitterdata.ReadDecodeStats().ArenaChunks; got-base > 2 {
		t.Fatalf("arena grew by %d chunks across a malformed batch (rewind leaked)", got-base)
	}

	// 10k decoded-then-shed offers: each line parses cleanly, hits the
	// full queue, and must be Discarded before the decoder returns to the
	// pool. Between requests the decoder sits in a sync.Pool, which a GC
	// cycle may empty, and a replacement decoder opens one fresh chunk — so
	// the promise is not a flat counter but growth bounded by the
	// collections that ran (one idle decoder per P can be lost to each).
	// The shed tweet carries 4 KB of text: a handler that forgot to Discard
	// would stride through 10k x 4 KB = 600+ chunks, far above that bound.
	// The race runtime drops Pool items at random to shake out lifecycle
	// races, so the bound only holds in non-race builds.
	shed.Text = strings.Repeat("shed every time ", 256)
	if blob, err = shed.Marshal(); err != nil {
		t.Fatal(err)
	}
	line = string(blob) + "\n"
	postLines(line)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBase := ms.NumGC
	base = twitterdata.ReadDecodeStats().ArenaChunks
	for i := 0; i < 10_000; i++ {
		if ir := postLines(line); ir.Rejected != 1 {
			t.Fatalf("offer %d: %+v, want 1 rejected", i, ir)
		}
	}
	runtime.ReadMemStats(&ms)
	allowed := 2 + int64(ms.NumGC-gcBase)*int64(runtime.GOMAXPROCS(0))
	leaked := int64(10_000 * len(shed.Text) / (64 << 10))
	if allowed >= leaked {
		t.Fatalf("%d GC cycles allow %d chunks, no tighter than the %d a missing Discard would leak", ms.NumGC-gcBase, allowed, leaked)
	}
	got := twitterdata.ReadDecodeStats().ArenaChunks
	t.Logf("rejected traffic: arena grew by %d chunks over %d GC cycles (bound %d, a leak would be %d)", got-base, ms.NumGC-gcBase, allowed, leaked)
	if !raceEnabled && got-base > allowed {
		t.Fatalf("arena grew by %d chunks across rejected traffic, %d GC cycles allow %d (shed tweets not Discarded)",
			got-base, ms.NumGC-gcBase, allowed)
	}
}

// TestWALStoresRawNDJSONRecords checks the zero-re-marshal contract:
// tweets accepted over HTTP land in the log as their verbatim NDJSON
// wire bytes.
func TestWALStoresRawNDJSONRecords(t *testing.T) {
	opts, l := walOptions(t, t.TempDir(), 1, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	defer l.Close()
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	tweets := walTweets(8)
	postNDJSON(t, ts.URL, tweets)
	ts.Close()
	if err := drainServer(t, s); err != nil {
		t.Fatal(err)
	}

	r, err := l.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var n int
	for {
		payload, _, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) == 0 || payload[0] != '{' {
			t.Fatalf("record %d: payload starts with %#x, want raw NDJSON '{'", n, payload[0])
		}
		want, err := tweets[n].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("record %d: payload differs from wire bytes", n)
		}
		n++
	}
	if n != len(tweets) {
		t.Fatalf("log holds %d records, want %d", n, len(tweets))
	}
}

// TestReplayRejectsNonNDJSONRecord appends one record that is not an
// NDJSON tweet (led by 0x01, the version byte of the binary record form
// servers wrote before the log stored wire bytes) in the middle of a log.
// Replay must stop there with an error naming shard and offset, never
// mis-parse it, and leave every earlier record applied exactly once.
func TestReplayRejectsNonNDJSONRecord(t *testing.T) {
	tweets := walTweets(40)
	const bad = 25
	opts, l := walOptions(t, t.TempDir(), 1, ingestlog.Options{Fsync: ingestlog.FsyncOff})
	defer l.Close()
	want := core.NewPipeline(opts.Pipeline)
	for i := range tweets {
		payload, err := tweets[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if i == bad {
			payload = []byte("\x01\x03991\x05hello")
		} else if i < bad {
			tw, err := twitterdata.Unmarshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			want.ProcessBatch([]core.BatchEntry{{Tweet: &tw, Offset: int64(i), Logged: true}}, nil)
		}
		if _, err := l.Append(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(opts, false)
	n, err := s.Replay()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replay shard 0 offset %d", bad)) {
		t.Fatalf("Replay error = %v, want one naming shard 0 offset %d", err, bad)
	}
	if n != bad {
		t.Fatalf("replayed %d records before the bad one, want %d", n, bad)
	}
	if got, want := fingerprint(s.Pipeline(0)), fingerprint(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after the failed replay is not the first %d records applied once:\n got: %+v\nwant: %+v", bad, got, want)
	}
}

func jsonDecodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return jsonDecodeReader(resp.Body, v)
}

func jsonDecodeReader(r io.Reader, v any) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("decode %q: %w", blob, err)
	}
	return nil
}
