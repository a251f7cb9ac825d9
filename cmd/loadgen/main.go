// Command loadgen replays synthetic datagen traffic against a running
// aggroserve instance at a target rate and reports client-observed latency
// percentiles and sustained throughput — the serving hot path's benchmark.
//
// Usage:
//
//	aggroserve -addr :8080 -shards 4 &
//	loadgen -url http://localhost:8080 -rps 20000 -duration 10s
//	loadgen -url http://localhost:8080 -mode classify -rps 2000
//
// In ingest mode tweets are shipped as NDJSON batches to /v1/ingest (the
// firehose path); in classify mode each tweet is a synchronous
// /v1/classify request. Tweets above the server's queue capacity come back
// as 429s and are reported as rejected, so driving -rps past capacity
// measures the backpressure behavior rather than overloading the server.
//
// When the server runs with -trace, loadgen pulls GET /v1/trace after the
// run and prints the server-side per-stage latency breakdown next to the
// client-observed percentiles — separating queue wait from compute from
// network.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redhanded/internal/obs"
	"redhanded/internal/serve"
	"redhanded/internal/twitterdata"
)

var logger *slog.Logger

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "aggroserve base URL")
		mode     = flag.String("mode", "ingest", "ingest (NDJSON batches) or classify (synchronous)")
		rps      = flag.Float64("rps", 10000, "target tweets per second")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		batch    = flag.Int("batch", 200, "tweets per /v1/ingest request")
		workers  = flag.Int("workers", 8, "concurrent HTTP connections")
		pool     = flag.Int("pool", 20000, "distinct tweets in the replay pool")
		labeled  = flag.Float64("labeled-share", 0.1, "fraction of pool tweets keeping their label (training traffic)")
		seed     = flag.Uint64("seed", 42, "generation seed")
		dupRatio = flag.Float64("duplicate-ratio", 0, "probability a pool tweet repeats a recent text (retweet-heavy traffic; exercises the server's extraction cache)")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, *logFormat, *logLevel)

	lines := buildPool(*pool, *labeled, *seed, *dupRatio)
	logger.Info("pool built",
		"tweets", len(lines), "labeled_share", *labeled, "duplicate_ratio", *dupRatio,
		"target_rps", *rps, "duration", duration.String())

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: *workers,
		MaxConnsPerHost:     0,
	}}

	// Pre-run server state, so the post-run report can show what the load
	// itself caused: snapshot rebuilds during the run and how the classify
	// stage's p99 moved. Both are nil/skipped against servers without the
	// endpoints or running without -trace.
	preTrace := fetchTrace(client, *url)
	preStats := fetchStats(client, *url)

	var (
		next      atomic.Int64 // next request index, shared pacing clock
		accepted  atomic.Int64
		rejected  atomic.Int64
		malformed atomic.Int64
		failed    atomic.Int64 // non-200/429 responses (400s, 503s, ...)
		errs      atomic.Int64
	)
	perReq := 1
	if *mode == "ingest" {
		perReq = *batch
	}
	interval := time.Duration(float64(perReq) / *rps * float64(time.Second))
	start := time.Now()
	deadline := start.Add(*duration)

	latencies := make([][]time.Duration, *workers)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				due := start.Add(time.Duration(n) * interval)
				if due.After(deadline) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				var (
					t0   = time.Now()
					resp *http.Response
					err  error
				)
				if *mode == "ingest" {
					resp, err = postIngest(client, *url, lines, int(n)*perReq, perReq)
				} else {
					resp, err = postClassify(client, *url, lines[int(n)%len(lines)])
				}
				lat := time.Since(t0)
				if err != nil {
					errs.Add(1)
					continue
				}
				latencies[w] = append(latencies[w], lat)
				consume(resp, *mode, perReq, &accepted, &rejected, &malformed, &failed)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Printf("\nmode=%s requests=%d elapsed=%s\n", *mode, len(all), elapsed.Round(time.Millisecond))
	fmt.Printf("tweets: accepted=%d rejected(429)=%d malformed=%d failed=%d transport-errors=%d\n",
		accepted.Load(), rejected.Load(), malformed.Load(), failed.Load(), errs.Load())
	fmt.Printf("sustained throughput: %.0f accepted tweets/s (target %.0f/s)\n",
		float64(accepted.Load())/elapsed.Seconds(), *rps)
	if len(all) > 0 {
		fmt.Printf("request latency: p50=%s p95=%s p99=%s max=%s\n",
			pct(all, 0.50), pct(all, 0.95), pct(all, 0.99), all[len(all)-1].Round(time.Microsecond))
	}
	postTrace := fetchTrace(client, *url)
	printServerTrace(postTrace)
	postStats := fetchStats(client, *url)
	printSnapshotDelta(preTrace, postTrace, preStats, postStats)
	printFeatCacheDelta(preStats, postStats)
}

// fetchTrace pulls the server-side stage breakdown from GET /v1/trace.
// Returns nil against servers running without -trace (the endpoint
// feature-detects with enabled=false) or predating the endpoint entirely.
func fetchTrace(client *http.Client, base string) *obs.Summary {
	resp, err := client.Get(base + "/v1/trace")
	if err != nil {
		logger.Debug("trace fetch failed", "err", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var sum obs.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		logger.Debug("trace decode failed", "err", err)
		return nil
	}
	if !sum.Enabled {
		return nil
	}
	return &sum
}

// fetchStats pulls GET /v1/stats; nil when the server is unreachable or
// the endpoint is missing.
func fetchStats(client *http.Client, base string) *serve.Stats {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		logger.Debug("stats fetch failed", "err", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		logger.Debug("stats decode failed", "err", err)
		return nil
	}
	return &st
}

// printServerTrace prints the server-side stage breakdown as a table.
func printServerTrace(sum *obs.Summary) {
	if sum == nil || len(sum.Stages) == 0 {
		return
	}
	fmt.Printf("\nserver-side stage breakdown (%d spans, %d over the %s slow budget):\n",
		sum.Spans, sum.SlowSpans, time.Duration(sum.SlowBudgetNanos))
	fmt.Printf("  %-16s %10s %10s %10s %10s\n", "stage", "count", "p50", "p95", "p99")
	for _, st := range sum.Stages {
		fmt.Printf("  %-16s %10d %10s %10s %10s\n", st.Stage, st.Count,
			obs.DurString(st.P50Nanos), obs.DurString(st.P95Nanos), obs.DurString(st.P99Nanos))
	}
}

// classifyP99 extracts the classify stage's p99 from a trace summary
// (0 when the stage has not been observed).
func classifyP99(sum *obs.Summary) int64 {
	if sum == nil {
		return 0
	}
	for _, st := range sum.Stages {
		if st.Stage == "classify" {
			return st.P99Nanos
		}
	}
	return 0
}

// printSnapshotDelta reports what the run itself cost the compiled
// classify path: compiled-snapshot rebuilds triggered during the load and
// the movement of the server-side classify p99. Printed only when the
// server traces (matching the stage table) and publishes snapshot
// counters on /v1/stats.
func printSnapshotDelta(preTrace, postTrace *obs.Summary, pre, post *serve.Stats) {
	if postTrace == nil || post == nil || post.SnapshotRebuilds == 0 {
		return
	}
	rebuilds, trees := post.SnapshotRebuilds, post.SnapshotTreesRebuilt
	if pre != nil {
		rebuilds -= pre.SnapshotRebuilds
		trees -= pre.SnapshotTreesRebuilt
	}
	fmt.Printf("\ncompiled snapshots: %d rebuilds during run (%d trees re-flattened; %d rebuilds total)\n",
		rebuilds, trees, post.SnapshotRebuilds)
	prev, cur := classifyP99(preTrace), classifyP99(postTrace)
	if cur > 0 {
		if prev > 0 {
			delta := time.Duration(cur - prev).Round(time.Microsecond)
			sign := ""
			if delta >= 0 {
				sign = "+"
			}
			fmt.Printf("classify p99: %s -> %s (%s%s)\n",
				obs.DurString(prev), obs.DurString(cur), sign, delta)
		} else {
			fmt.Printf("classify p99: %s\n", obs.DurString(cur))
		}
	}
}

// printFeatCacheDelta reports the server-side extraction-cache hit ratio
// over the run, from pre/post /v1/stats counter deltas. Printed only when
// the server publishes cache counters (cache enabled) and the run
// produced lookups.
func printFeatCacheDelta(pre, post *serve.Stats) {
	if post == nil || post.FeatCacheHits+post.FeatCacheMisses == 0 {
		return
	}
	hits, misses := post.FeatCacheHits, post.FeatCacheMisses
	if pre != nil {
		hits -= pre.FeatCacheHits
		misses -= pre.FeatCacheMisses
	}
	if hits+misses == 0 {
		return
	}
	fmt.Printf("\nextraction cache: %.1f%% hit ratio during run (%d hits / %d lookups; %d evictions total)\n",
		100*float64(hits)/float64(hits+misses), hits, hits+misses, post.FeatCacheEvictions)
}

// buildPool pre-marshals the replay pool: endless firehose-style tweets,
// with a slice of them keeping their labels so the server keeps training.
// A non-zero dupRatio makes both generators re-emit recent texts verbatim
// (retweet-style duplication), so a server-side extraction cache has
// something to hit.
func buildPool(n int, labeledShare float64, seed uint64, dupRatio float64) [][]byte {
	src := twitterdata.NewUnlabeledSource(seed, 10)
	src.SetDuplicateRatio(dupRatio)
	rng := rand.New(rand.NewPCG(seed, 0x10ad6e4))
	cfg := twitterdata.DefaultAggressionConfig()
	cfg.Seed = seed
	cfg.DuplicateRatio = dupRatio
	scale := float64(n) * labeledShare / 86000
	cfg.NormalCount = int(float64(cfg.NormalCount) * scale)
	cfg.AbusiveCount = int(float64(cfg.AbusiveCount) * scale)
	cfg.HatefulCount = int(float64(cfg.HatefulCount) * scale)
	labeled := twitterdata.GenerateAggression(cfg)

	lines := make([][]byte, 0, n)
	li := 0
	for i := 0; i < n; i++ {
		var t twitterdata.Tweet
		if li < len(labeled) && rng.Float64() < labeledShare {
			t = labeled[li]
			li++
		} else {
			t = src.Next()
		}
		blob, err := t.Marshal()
		if err != nil {
			logger.Error("marshal tweet failed", "err", err)
			os.Exit(1)
		}
		lines = append(lines, blob)
	}
	return lines
}

func postIngest(client *http.Client, base string, lines [][]byte, off, n int) (*http.Response, error) {
	var body bytes.Buffer
	body.Grow(n * 400)
	for i := 0; i < n; i++ {
		body.Write(lines[(off+i)%len(lines)])
		body.WriteByte('\n')
	}
	return client.Post(base+"/v1/ingest", "application/x-ndjson", &body)
}

func postClassify(client *http.Client, base string, line []byte) (*http.Response, error) {
	return client.Post(base+"/v1/classify", "application/json", bytes.NewReader(line))
}

// consume tallies one response's accept counts and drains the body so the
// connection is reused.
func consume(resp *http.Response, mode string, perReq int, accepted, rejected, malformed, failed *atomic.Int64) {
	defer resp.Body.Close()
	switch {
	case mode == "ingest":
		var ir serve.IngestResponse
		if json.NewDecoder(resp.Body).Decode(&ir) == nil {
			accepted.Add(ir.Accepted)
			rejected.Add(ir.Rejected)
			malformed.Add(ir.Malformed)
		} else {
			failed.Add(int64(perReq))
		}
	case resp.StatusCode == http.StatusOK:
		accepted.Add(int64(perReq))
	case resp.StatusCode == http.StatusTooManyRequests:
		rejected.Add(int64(perReq))
	default:
		failed.Add(int64(perReq))
	}
	io.Copy(io.Discard, resp.Body)
}

func pct(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}
