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

	"redhanded/internal/core"
	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

func arfOptions() Options {
	opts := core.DefaultOptions()
	opts.Model = core.ModelARF
	opts.ARF.EnsembleSize = 3
	opts.SampleStep = 0
	return Options{
		Pipeline: opts,
		Shards:   2,
		Registry: metrics.NewRegistry(),
	}
}

func arfTraffic(n int) []twitterdata.Tweet {
	var tweets []twitterdata.Tweet
	for i := 0; i < n; i++ {
		label := twitterdata.LabelNormal
		text := "what a lovely day to walk in the park with friends"
		if i%3 == 0 {
			label = twitterdata.LabelAbusive
			text = "you are a fucking idiot and a STUPID fool!!"
		}
		tweets = append(tweets, makeTweet(fmt.Sprint("a", i), fmt.Sprint("u", i%7), text, label))
	}
	return tweets
}

func ingestAll(t *testing.T, s *Server, tweets []twitterdata.Tweet) {
	t.Helper()
	before := processedTotal(s) // a restored server starts at its checkpoint's count
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, before+int64(len(tweets)))
}

// TestServeARFCheckpointRestoreContinues proves restore-then-continue
// equivalence for the ARF at the serving layer: a restored server fed the
// same remaining traffic lands on exactly the per-shard reports of the
// server that never restarted. User affinity routes every tweet to the
// same shard on both servers, and each shard's forest (trees, detectors,
// RNG) resumes bit-for-bit.
func TestServeARFCheckpointRestoreContinues(t *testing.T) {
	traffic := arfTraffic(120)
	first, rest := traffic[:60], traffic[60:]

	orig := NewServer(arfOptions())
	ingestAll(t, orig, first)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := orig.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := orig.Checkpoint(dir); err != nil {
		t.Fatalf("ARF checkpoint failed: %v", err)
	}

	restored := NewServer(arfOptions())
	if err := restored.Restore(dir); err != nil {
		t.Fatalf("ARF restore failed: %v", err)
	}

	// A second, uninterrupted server processes the whole stream; the
	// restored one only the remainder.
	whole := NewServer(arfOptions())
	ingestAll(t, whole, traffic)
	ingestAll(t, restored, rest)

	for i := 0; i < whole.Shards(); i++ {
		a, b := whole.Pipeline(i), restored.Pipeline(i)
		if a.Summary() != b.Summary() {
			t.Errorf("shard %d diverged after restore:\nuninterrupted %+v\nrestored      %+v",
				i, a.Summary(), b.Summary())
		}
		da, db := a.Counts().Drift, b.Counts().Drift
		if (da == nil) != (db == nil) || (da != nil && (da.Warnings != db.Warnings || da.Drifts != db.Drifts)) {
			t.Errorf("shard %d drift telemetry diverged: %+v vs %+v", i, da, db)
		}
	}
	drainAll(t, restored, whole)
}

func drainAll(t *testing.T, servers ...*Server) {
	t.Helper()
	for _, s := range servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
		cancel()
	}
}

// TestServeARFCheckpointUnderConcurrentClassify checkpoints while classify
// traffic is in flight: Checkpoint serializes on each shard pipeline's
// lock, so the written state must be loadable and the server must keep
// serving (the -race job is the real assertion here).
func TestServeARFCheckpointUnderConcurrentClassify(t *testing.T) {
	s := NewServer(arfOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				label := ""
				if i%3 == 0 {
					label = twitterdata.LabelAbusive
				}
				tw := makeTweet(fmt.Sprintf("cc%d-%d", w, i), fmt.Sprint("u", i%9),
					"you STUPID idiot stop doing that!!", label)
				blob, _ := json.Marshal(tw)
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(blob))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}

	time.Sleep(10 * time.Millisecond)
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		if err := s.Checkpoint(dir); err != nil {
			t.Errorf("checkpoint under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	restored := NewServer(arfOptions())
	if err := restored.Restore(dir); err != nil {
		t.Fatalf("restore of under-load ARF checkpoint failed: %v", err)
	}
	drainAll(t, s, restored)
}

// TestServeARFRestoreRejectsCorruptBlob covers the failure modes a
// production restore must refuse: truncated and bit-flipped ARF shard
// files, and a checkpoint written by a different model kind.
func TestServeARFRestoreRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	orig := NewServer(arfOptions())
	ingestAll(t, orig, arfTraffic(40))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := orig.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := orig.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, shardFile(0))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated shard file.
	if err := os.WriteFile(path, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewServer(arfOptions()).Restore(dir); err == nil {
		t.Fatal("Restore succeeded on a truncated ARF shard file")
	}

	// Bit-flipped shard file (valid length, corrupt payload).
	flipped := append([]byte(nil), blob...)
	for i := len(flipped) / 2; i < len(flipped)/2+64 && i < len(flipped); i++ {
		flipped[i] ^= 0xff
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewServer(arfOptions()).Restore(dir); err == nil {
		t.Fatal("Restore succeeded on a bit-flipped ARF shard file")
	}

	// Model-kind mismatch: an HT server must refuse an ARF checkpoint.
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	htOpts := arfOptions()
	htOpts.Pipeline.Model = core.ModelHT
	if err := NewServer(htOpts).Restore(dir); err == nil {
		t.Fatal("HT server restored an ARF checkpoint")
	}
}
