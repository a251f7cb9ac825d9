package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what every pass of one invocation shares.
type env struct {
	root    string // checkout root (the working directory)
	tmp     string // scratch directory of this invocation, inside the checkout
	bin     string // the aggroserve binary under test
	seed    uint64
	seconds float64
	dirs    int
	probe   *prober // the machine-speed probe every reading is calibrated by (calib.go)
}

// scratchDir makes a fresh directory under the invocation's scratch space.
// Everything the benchmark writes while running — WAL segments included —
// stays inside the checkout.
func (e *env) scratchDir(name string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", name, e.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func (e *env) phase(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// rig is one set-up serving workload: corpus built, server healthy, SSE
// reader subscribed, warm-up processed.
type rig struct {
	srv  *server
	load *loader
}

func (r *rig) close() {
	r.load.close()
	r.srv.kill()
}

// setUp does everything between "workload start" and "first timed phase" and
// reports how long it took.
func (e *env) setUp(w workload) (*rig, float64, error) {
	start := time.Now()
	c, err := buildServingCorpus(e.seed, w.retweets, corpusLines)
	if err != nil {
		return nil, 0, err
	}
	r, err := e.setUpWith(c, w)
	return r, time.Since(start).Seconds(), err
}

// setUpWith is setUp on a corpus that is already built: start the server
// (with extra flags: the WAL's, or -trace), subscribe, warm up.
func (e *env) setUpWith(c *corpus, w workload, extra ...string) (*rig, error) {
	srv, err := startServer(e.bin, runtime.NumCPU(), extra...)
	if err != nil {
		return nil, err
	}
	load, err := newLoader(srv, c, w.kind)
	if err != nil {
		srv.kill()
		return nil, err
	}
	r := &rig{srv: srv, load: load}
	if err := load.warm(w.warmup); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setUpMedian sets the workload up setupRepeats times, keeps the last rig,
// and reports the median set-up time: one set-up is a handful of process
// starts and page faults, and a single reading of it is too noisy to gate.
// Set-up is generating, marshalling and processing tweets, so each reading
// is calibrated like every other time, by a probe before and after it.
func (e *env) setUpMedian(w workload) (*rig, float64, error) {
	var times []float64
	threads := runtime.NumCPU()
	before := e.probe.measure(threads)
	for i := 1; ; i++ {
		r, s, err := e.setUp(w)
		if err != nil {
			return nil, 0, err
		}
		after := e.probe.measure(threads)
		times = append(times, s/float64(between(before, after)))
		if i == setupRepeats {
			return r, median(times), nil
		}
		r.close()
		before = after
	}
}

// result is one invocation's outcome in the shape the contract prints.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	raw               map[string]float64 // uncalibrated medians and probe readings, for the run file
	rounds            []round            // serving runs: every round's readings, for the run file
	notes             []string           // human-readable lines for stderr
	argv              []string           // aggroserve command line, serving workloads
}

// round is one turn of a serving run: an open-loop steady segment and a
// closed-loop saturation burst, each read against the probes either side.
type round struct {
	SteadySpeed speed   `json:"steady_speed"` // probe readings either side of the steady segment, averaged
	BurstSpeed  speed   `json:"burst_speed"`  // likewise for the burst
	P50ms       float64 `json:"p50_ms"`       // raw: the steady segment's verdict latencies
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
	TPS         float64 `json:"tps"`    // raw: the burst's tweets processed per second
	CPUUS       float64 `json:"cpu_us"` // raw: the burst's server CPU per tweet
	Verdicts    int     `json:"verdicts"`
	StealShare  float64 `json:"steal_share"` // share of the machine's CPU time the hypervisor took during the round
}

// runServing is the untraced run of a serving workload. For `seconds` it
// alternates steady segments and saturation bursts, a probe between any two,
// so that both kinds of load see every stretch of the run and every reading
// has a measurement of the machine's speed right beside it. An end-to-end
// metric is the median over the rounds of the calibrated reading.
func (e *env) runServing(w workload) (*result, error) {
	r, setupS, err := e.setUpMedian(w)
	if err != nil {
		return nil, err
	}
	defer r.close()
	pr, threads := e.probe, runtime.NumCPU()

	var (
		rounds, spoiled []round
		res             = &result{argv: r.srv.argv, metrics: map[string]float64{"setup_s": setupS}}
		st              phaseTally
		measured        time.Duration
	)
	limit := time.Now().Add(e.phase(1 + graceShare))
	before := pr.measure(threads)
	for measured < e.phase(1) && time.Now().Before(limit) {
		began, steal0 := time.Now(), hostSteal()
		n := len(rounds) + len(spoiled)
		steady, err := r.load.steady(w.steadyRate, steadySegment)
		if err != nil {
			return nil, fmt.Errorf("steady segment %d: %w", n, err)
		}
		mid := pr.measure(threads)
		sat, err := r.load.saturate(burstSegment)
		if err != nil {
			return nil, fmt.Errorf("saturation burst %d: %w", n, err)
		}
		after := pr.measure(threads)
		took := time.Since(began)
		if len(steady.verdicts) == 0 || sat.processed() == 0 {
			return nil, fmt.Errorf("round %d: no verdicts (%d) or no saturation work (%d)", n, len(steady.verdicts), sat.processed())
		}
		lat := make([]float64, len(steady.verdicts))
		for i, v := range steady.verdicts {
			lat[i] = float64(v.latency) / float64(time.Millisecond)
		}
		sort.Float64s(lat)
		rd := round{
			SteadySpeed: between(before, mid), BurstSpeed: between(mid, after),
			P50ms: percentile(lat, 0.50), P90ms: percentile(lat, 0.90), P99ms: percentile(lat, 0.99), Verdicts: len(lat),
			TPS: sat.tps(), CPUUS: sat.cpuUS(), StealShare: stealShare(hostSteal()-steal0, took),
		}
		st.add(steady, sat, r.load.perReq)
		before = after
		if rd.StealShare > maxStealShare {
			spoiled = append(spoiled, rd)
			waitQuiet(limit)
			before = pr.measure(threads)
			continue
		}
		rounds = append(rounds, rd)
		measured += took
	}
	kept := len(rounds)
	if kept < minRounds {
		rounds = append(rounds, spoiled...) // the host never went quiet: a disturbed reading beats none
	}
	rss, err := peakRSSMB(r.srv.pid())
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = st.offered, st.failed
	res.metrics["peak_rss_mb"] = rss
	cal, raw := summarizeRounds(rounds)
	for k, v := range cal {
		res.metrics[k] = v
	}
	res.raw, res.rounds = raw, rounds
	res.notes = append(res.notes,
		fmt.Sprintf("%d rounds of a %s steady segment at %.0f tweets/s (%.0f%% of saturation) and a %s saturation burst, %d more spoiled by host steal; %d tweets offered, %d verdict-latency samples, %d failed (%d rejected, %d malformed, %d requests lost, %d accepted but not processed, %d alerts undelivered), %d 429-rejected and resent in bursts",
			kept, steadySegment, w.steadyRate, 100*w.steadyRate/raw["throughput_tps"], burstSegment, len(spoiled), st.offered, st.verdicts, st.failed,
			st.rejected, st.malformed, st.failedReqs, st.lost, st.undelivered, st.resent),
		fmt.Sprintf("probe unit took %.3f of its nominal CPU time over the run; uncalibrated medians: %.0f tweets/s, %.2f us/tweet, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
			raw["machine_speed"], raw["throughput_tps"], raw["cpu_us_per_tweet"],
			raw["verdict_latency_p50_ms"], raw["verdict_latency_p90_ms"], raw["verdict_latency_p99_ms"]))
	return res, nil
}

// phaseTally adds up what the segments of a run offered and lost.
type phaseTally struct {
	offered, failed, verdicts                                  int64
	rejected, malformed, failedReqs, lost, undelivered, resent int64
}

func (t *phaseTally) add(steady, sat *phase, perReq int) {
	t.offered += steady.offered + sat.offered
	t.failed += steady.failed(perReq) + sat.malformed + sat.failedReqs*int64(perReq)
	t.verdicts += int64(len(steady.verdicts))
	t.rejected += steady.rejected
	t.malformed += steady.malformed + sat.malformed
	t.failedReqs += steady.failedReqs + sat.failedReqs
	t.lost += max(0, steady.accepted-steady.processed())
	t.undelivered += steady.undelivered
	t.resent += sat.rejected
}

// summarizeRounds turns the rounds' readings into the timed end-to-end
// metrics: each reading is calibrated by its own segment's machine speed,
// and the metric is the median over the rounds. raw holds the same medians
// uncalibrated, the p99 (too restless on a shared box to be an end-to-end
// metric; reported per layer) and the median probe reading.
func summarizeRounds(rounds []round) (cal, raw map[string]float64) {
	col := func(f func(round) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	cal = map[string]float64{
		"throughput_tps":         col(func(r round) float64 { return r.TPS * float64(r.BurstSpeed) }),
		"cpu_us_per_tweet":       col(func(r round) float64 { return r.CPUUS / float64(r.BurstSpeed) }),
		"verdict_latency_p50_ms": col(func(r round) float64 { return r.P50ms / float64(r.SteadySpeed) }),
		"verdict_latency_p90_ms": col(func(r round) float64 { return r.P90ms / float64(r.SteadySpeed) }),
	}
	raw = map[string]float64{
		"throughput_tps":         col(func(r round) float64 { return r.TPS }),
		"cpu_us_per_tweet":       col(func(r round) float64 { return r.CPUUS }),
		"verdict_latency_p50_ms": col(func(r round) float64 { return r.P50ms }),
		"verdict_latency_p90_ms": col(func(r round) float64 { return r.P90ms }),
		"verdict_latency_p99_ms": col(func(r round) float64 { return r.P99ms }),
		"machine_speed":          col(func(r round) float64 { return float64(r.SteadySpeed+r.BurstSpeed) / 2 }),
	}
	return cal, raw
}
