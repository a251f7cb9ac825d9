package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"redhanded/internal/eval"
	"redhanded/internal/twitterdata"
)

// writeCheckpoint builds a drained server with some learned state and
// checkpoints it into a fresh directory.
func writeCheckpoint(t *testing.T, dir string) {
	t.Helper()
	s := NewServer(testOptions())
	var tweets []twitterdata.Tweet
	for i := 0; i < 40; i++ {
		label := twitterdata.LabelNormal
		if i%3 == 0 {
			label = twitterdata.LabelAbusive
		}
		tweets = append(tweets, makeTweet(fmt.Sprint("t", i), fmt.Sprint("u", i%7),
			"you are a fucking idiot and a fool", label))
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, int64(len(tweets)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreTruncatedShardFile(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir)

	path := filepath.Join(dir, shardFile(0))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewServer(testOptions())
	defer s.Drain(context.Background())
	if err := s.Restore(dir); err == nil {
		t.Fatal("Restore succeeded on a truncated shard file")
	}
}

// A bad file for the last shard fails Restore before any shard moves: no
// shard is left on the checkpoint while the others keep their old state.
func TestRestoreCorruptShardFile(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir)

	if err := os.WriteFile(filepath.Join(dir, shardFile(3)),
		bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 128), 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewServer(testOptions())
	defer s.Drain(context.Background())
	type state struct {
		processed int64
		summary   eval.Report
	}
	before := make([]state, len(s.shards))
	for i, sh := range s.shards {
		before[i] = state{sh.p.Processed(), sh.p.Summary()}
	}
	if err := s.Restore(dir); err == nil {
		t.Fatal("Restore succeeded on a corrupt shard file")
	}
	for i, sh := range s.shards {
		if got := (state{sh.p.Processed(), sh.p.Summary()}); got != before[i] {
			t.Fatalf("shard %d moved on a failed Restore: %+v, was %+v", i, got, before[i])
		}
	}
}

func TestRestoreMissingAndCorruptManifest(t *testing.T) {
	s := NewServer(testOptions())
	defer s.Drain(context.Background())

	if err := s.Restore(t.TempDir()); err == nil {
		t.Fatal("Restore succeeded on an empty directory")
	}

	dir := t.TempDir()
	writeCheckpoint(t, dir)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(dir); err == nil {
		t.Fatal("Restore succeeded on a corrupt manifest")
	}
}

func TestRestoreShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir) // 4 shards

	opts := testOptions()
	opts.Shards = 2
	s := NewServer(opts)
	defer s.Drain(context.Background())
	if err := s.Restore(dir); err == nil {
		t.Fatal("Restore succeeded into a server with a different shard count")
	}
}

// TestRestoreMidIngest restores a checkpoint while ingest traffic is in
// flight. Restore and Process serialize on each pipeline's lock, so the
// server must come out functional with no torn state (the -race job is the
// real assertion here).
func TestRestoreMidIngest(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir)

	s := NewServer(testOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tw := makeTweet(fmt.Sprint("m", i), fmt.Sprint("u", i%5),
				"some plain ingest traffic flowing through", "")
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
				ndjson(t, []twitterdata.Tweet{tw}))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()

	time.Sleep(10 * time.Millisecond)
	if err := s.Restore(dir); err != nil {
		t.Errorf("Restore mid-ingest failed: %v", err)
	}
	close(stop)
	wg.Wait()

	// The server must still classify after the mid-flight restore.
	tw := makeTweet("after", "u1", "hello after restore", "")
	blob, _ := json.Marshal(tw)
	resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify after restore: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClassifyPooledVectors hammers /v1/classify from many
// goroutines: under -race this exercises the pooled scratch buffers and
// feature vectors shared across shard pipelines and HTTP handlers.
func TestConcurrentClassifyPooledVectors(t *testing.T) {
	s := NewServer(testOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				label := ""
				if i%4 == 0 {
					label = twitterdata.LabelAbusive
				}
				tw := makeTweet(fmt.Sprintf("c%d-%d", w, i), fmt.Sprint("u", (w*perWorker+i)%11),
					"you are a STUPID sooo stupid idiot!! don't do that. ever again", label)
				blob, err := json.Marshal(tw)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
