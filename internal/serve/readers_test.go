package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/twitterdata"
)

// TestLiveReadersWhileShardsProcess polls /metrics, /v1/stats and
// /v1/users/{id} while /v1/ingest and /v1/classify drive every shard, for
// the Hoeffding Tree and the ARF. A pipeline's lock is the only lock on
// its components, so under -race this proves that every live read goes
// through it. The processed count a reader sees never goes backwards, and
// once the writers finish /v1/stats accounts for every tweet.
func TestLiveReadersWhileShardsProcess(t *testing.T) {
	for _, kind := range []core.ModelKind{core.ModelHT, core.ModelARF} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := testOptions()
			opts.Pipeline.Model = kind
			opts.Pipeline.ARF.EnsembleSize = 3
			s := NewServer(opts)
			ts := httptest.NewServer(s)
			defer s.Drain(context.Background())
			defer ts.Close()

			tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
				Seed: 47, Days: 2, NormalCount: 400, AbusiveCount: 200, HatefulCount: 60,
			})
			for i := range tweets {
				tweets[i].User.IDStr = fmt.Sprint("reader-", i%40)
				if i%3 == 1 {
					tweets[i].Label = ""
				}
			}
			ingest, classify := tweets[:600], tweets[600:]

			// The readers start first, and the writers once each has
			// read once.
			stop := make(chan struct{})
			var readers, ready sync.WaitGroup
			poll := func(read func(n int) bool) {
				readers.Add(1)
				ready.Add(1)
				go func() {
					defer readers.Done()
					for n := 0; ; n++ {
						ok := read(n)
						if n == 0 {
							ready.Done()
						}
						select {
						case <-stop:
							return
						default:
						}
						if !ok {
							return
						}
					}
				}()
			}
			poll(func(int) bool {
				body, ok := httpGet(t, ts.URL+"/metrics", http.StatusOK)
				if ok && !strings.Contains(body, `redhanded_shard_processed_total{shard="3"}`) {
					t.Errorf("/metrics lacks a shard's processed series")
					return false
				}
				return ok
			})
			var last int64
			poll(func(int) bool {
				body, ok := httpGet(t, ts.URL+"/v1/stats", http.StatusOK)
				var st Stats
				if ok {
					if err := json.Unmarshal([]byte(body), &st); err != nil {
						t.Errorf("/v1/stats: %v", err)
						return false
					}
					if st.Processed < last || len(st.PerShard) != opts.Shards {
						t.Errorf("/v1/stats went from %d to %d processed over %d shards", last, st.Processed, len(st.PerShard))
						return false
					}
					last = st.Processed
				}
				return ok
			})
			poll(func(n int) bool {
				_, ok := httpGet(t, ts.URL+"/v1/users/reader-"+fmt.Sprint(n%40), http.StatusOK, http.StatusNotFound)
				return ok
			})

			ready.Wait()
			var writers sync.WaitGroup
			writers.Add(2)
			go func() {
				defer writers.Done()
				for lo := 0; lo < len(ingest); lo += 50 {
					ingestWithRetry(t, ts.URL, ingest[lo:min(lo+50, len(ingest))])
				}
			}()
			go func() {
				defer writers.Done()
				for i := range classify {
					classifyWithRetry(t, ts.URL, &classify[i])
				}
			}()

			writers.Wait()
			waitProcessed(t, s, int64(len(tweets)))
			close(stop)
			readers.Wait()

			st := fetchStats(t, ts.URL)
			if st.Processed != int64(len(tweets)) {
				t.Fatalf("/v1/stats reports %d processed, want %d", st.Processed, len(tweets))
			}
			for _, sh := range st.PerShard {
				if sh.Processed == 0 {
					t.Fatalf("shard %d processed nothing", sh.Shard)
				}
			}
		})
	}
}

// TestLiveReadersScrapeOneCut scrapes /metrics back to back while
// /v1/ingest drives every shard. Every tweet a pipeline processes makes one
// extraction-cache lookup, a hit or a miss, in the same critical section,
// so on a fresh server any one cut of a pipeline has featcache_hits +
// featcache_misses = shard_processed_total; a scrape that read the three
// series at different moments would show a gap. The writer posts batches
// of 100 and waits for a scrape after each, so every shard's queue (1 024)
// holds its share and scrapes interleave with processing.
func TestLiveReadersScrapeOneCut(t *testing.T) {
	opts := testOptions()
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	defer s.Drain(context.Background())
	defer ts.Close()

	tweets := twitterdata.GenerateAggression(twitterdata.AggressionConfig{
		Seed: 53, Days: 2, NormalCount: 1200, AbusiveCount: 600, HatefulCount: 200,
	})
	for i := range tweets {
		tweets[i].User.IDStr = fmt.Sprint("cut-", i%64)
		if i%4 == 3 {
			tweets[i].Text = tweets[i/4].Text // retweets, so the cache hits too
		}
		if i%3 == 1 {
			tweets[i].Label = ""
		}
	}

	var scrapes atomic.Int64
	var processed [4]int64 // the last scrape's per-shard counts
	scrape := func() bool {
		series, ok := scrapeMetrics(t, ts.URL)
		if !ok {
			return false
		}
		for sh := range opts.Shards {
			label := fmt.Sprintf(`{shard="%d"}`, sh)
			p, hits, misses := series["redhanded_shard_processed_total"+label],
				series["redhanded_featcache_hits"+label], series["redhanded_featcache_misses"+label]
			if hits+misses != p {
				t.Errorf("scrape %d, shard %d: featcache hits %v + misses %v != processed %v",
					scrapes.Load(), sh, hits, misses, p)
				return false
			}
			processed[sh] = int64(p)
		}
		scrapes.Add(1)
		return true
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !scrape() {
				return
			}
		}
	}()
	for lo := 0; lo < len(tweets); lo += 100 {
		ingestWithRetry(t, ts.URL, tweets[lo:min(lo+100, len(tweets))])
		for n := scrapes.Load(); scrapes.Load() == n && !t.Failed(); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitProcessed(t, s, int64(len(tweets)))
	close(stop)
	<-done
	if !scrape() {
		t.FailNow()
	}
	for sh, n := range processed {
		if n == 0 {
			t.Fatalf("shard %d processed nothing", sh)
		}
	}
	t.Logf("%d scrapes, each one cut of every shard", scrapes.Load())
}

// httpGet fetches url and reports whether it answered with one of the wanted
// statuses; it records a failure otherwise. Safe off the test goroutine.
func httpGet(t *testing.T, url string, want ...int) (string, bool) {
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return "", false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return "", false
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return string(body), true
		}
	}
	t.Errorf("GET %s: status %d", url, resp.StatusCode)
	return "", false
}

// ingestWithRetry posts tweets to /v1/ingest, resending the rejected
// suffix of a 429'd batch. Safe off the test goroutine.
func ingestWithRetry(t *testing.T, url string, tweets []twitterdata.Tweet) {
	for len(tweets) > 0 {
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
		var ir IngestResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		switch {
		case err != nil:
			t.Errorf("ingest: %v", err)
			return
		case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests:
			t.Errorf("ingest: status %d", resp.StatusCode)
			return
		case ir.Malformed > 0:
			t.Errorf("ingest: %d malformed lines", ir.Malformed)
			return
		}
		tweets = tweets[ir.Accepted:]
		if len(tweets) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

// classifyWithRetry posts one tweet to /v1/classify until a shard admits
// it. Safe off the test goroutine.
func classifyWithRetry(t *testing.T, url string, tw *twitterdata.Tweet) {
	blob, err := tw.Marshal()
	if err != nil {
		t.Error(err)
		return
	}
	for {
		resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			t.Errorf("classify: status %d", resp.StatusCode)
			return
		}
	}
}
