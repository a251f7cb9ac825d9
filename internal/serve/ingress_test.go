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

	"redhanded/internal/ingestlog"
	"redhanded/internal/twitterdata"
)

// TestIngestFastLegacyEquivalence runs the same NDJSON batch — valid
// lines, malformed lines, blank lines — through a fast-decode server and
// a LegacyJSONDecode server and demands identical outcomes: the same
// IngestResponse and, after processing, the same per-shard pipeline
// fingerprints. The fuzz oracle proves the decoders agree tweet by
// tweet; this proves the servers agree end to end.
func TestIngestFastLegacyEquivalence(t *testing.T) {
	tweets := walTweets(120)
	var body bytes.Buffer
	for i := range tweets {
		if i%17 == 0 {
			body.WriteString("{\"id_str\": broken\n") // malformed
			continue
		}
		if i%23 == 0 {
			body.WriteByte('\n') // blank
			continue
		}
		blob, err := tweets[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		body.Write(blob)
		body.WriteByte('\n')
	}
	raw := body.Bytes()

	run := func(legacy bool) (IngestResponse, []pipelineFingerprint) {
		opts := testOptions()
		opts.Shards = 2
		opts.LegacyJSONDecode = legacy
		s := NewServer(opts)
		defer drainServer(t, s)
		ts := httptest.NewServer(s)
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var ir IngestResponse
		if err := jsonDecodeBody(resp, &ir); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("legacy=%v: status %d (%+v)", legacy, resp.StatusCode, ir)
		}
		waitProcessed(t, s, ir.Accepted)
		fps := make([]pipelineFingerprint, s.Shards())
		for i := range fps {
			fps[i] = fingerprint(s, i)
		}
		return ir, fps
	}

	fastIR, fastFP := run(false)
	legacyIR, legacyFP := run(true)
	if fastIR != legacyIR {
		t.Fatalf("ingest responses diverge: fast=%+v legacy=%+v", fastIR, legacyIR)
	}
	if fastIR.Malformed == 0 {
		t.Fatal("batch contained malformed lines but none were counted")
	}
	if !reflect.DeepEqual(fastFP, legacyFP) {
		t.Fatalf("pipeline fingerprints diverge:\nfast:   %+v\nlegacy: %+v", fastFP, legacyFP)
	}
}

// TestClassifyFastDecodeBehavior checks the synchronous endpoint on the
// fast path: a valid document classifies with the same verdict the
// legacy decoder produces, a malformed document is 400 on both paths,
// and trailing garbage after the document is rejected by the fast path
// (a deliberate tightening over json.NewDecoder's stream semantics).
func TestClassifyFastDecodeBehavior(t *testing.T) {
	post := func(ts *httptest.Server, body string) (*http.Response, ClassifyResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var cr ClassifyResponse
		_ = jsonDecodeBody(resp, &cr)
		return resp, cr
	}
	tw := makeTweet("900", "77", "you are a worthless idiot", "")
	blob, err := tw.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var verdicts [2]ClassifyResponse
	for i, legacy := range []bool{false, true} {
		opts := testOptions()
		opts.LegacyJSONDecode = legacy
		s := NewServer(opts)
		ts := httptest.NewServer(s)
		resp, cr := post(ts, string(blob))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("legacy=%v: classify status %d", legacy, resp.StatusCode)
		}
		verdicts[i] = cr
		if resp, _ := post(ts, `{"id_str": nope}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("legacy=%v: malformed classify status %d, want 400", legacy, resp.StatusCode)
		}
		if !legacy {
			if resp, _ := post(ts, string(blob)+"trailing"); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("fast path accepted trailing garbage: status %d", resp.StatusCode)
			}
		}
		ts.Close()
		drainServer(t, s)
	}
	if verdicts[0] != verdicts[1] {
		t.Fatalf("classify verdicts diverge: fast=%+v legacy=%+v", verdicts[0], verdicts[1])
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
// wire bytes (first payload byte '{'), not the binary codec.
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

// TestReplayMixedRecordForms proves logs written by older servers (binary
// codec records) and the raw-NDJSON records the fast ingress writes can
// coexist in one partition: replay dispatches per record on the leading
// byte, and a mixed log replays to exactly the state an all-binary log of
// the same tweets produces.
func TestReplayMixedRecordForms(t *testing.T) {
	tweets := walTweets(60)
	build := func(dir string, mixed bool) *Server {
		t.Helper()
		opts, l := walOptions(t, dir, 1, ingestlog.Options{Fsync: ingestlog.FsyncOff})
		t.Cleanup(func() { l.Close() })
		for i := range tweets {
			var payload []byte
			if mixed && i%2 == 0 {
				blob, err := tweets[i].Marshal()
				if err != nil {
					t.Fatal(err)
				}
				payload = blob
			} else {
				payload = ingestlog.AppendTweet(nil, &tweets[i])
			}
			if _, err := l.Append(0, payload); err != nil {
				t.Fatal(err)
			}
		}
		s := newServer(opts, false)
		n, err := s.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(tweets)) {
			t.Fatalf("replayed %d records, want %d", n, len(tweets))
		}
		return s
	}

	mixed := build(t.TempDir(), true)
	binary := build(t.TempDir(), false)
	got, want := fingerprint(mixed, 0), fingerprint(binary, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-log replay diverges from binary-log replay:\nmixed:  %+v\nbinary: %+v", got, want)
	}
	if off := mixed.Pipeline(0).LogOffset(); off != int64(len(tweets))-1 {
		t.Fatalf("applied offset %d after mixed replay, want %d", off, len(tweets)-1)
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
