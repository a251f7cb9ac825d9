package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/engine"
	"redhanded/internal/twitterdata"
)

// timedSource feeds an engine the offline corpus, cycling through it until
// the deadline. It is the benchmark's probe at the engine's input boundary:
// it stamps every pull, and every offlineWindow it stops the clock, runs the
// machine-speed probe (the engine is between two tweets or two batches, so
// nothing else runs), and opens the next window. It implements engine.Source.
type timedSource struct {
	tweets   []twitterdata.Tweet
	pos      int
	align    int // windows and the run end only where this many tweets divides the count (whole micro-batches)
	threads  int // how many threads the engine keeps busy: the probe runs on as many
	probe    *prober
	start    time.Time
	dur      time.Duration // how much unspoiled time to measure
	measured time.Duration // how much has been
	limit    time.Time     // when to stop regardless (dur plus its grace)
	end      time.Time
	labeled  int64
	// pulls[i] is when the i-th tweet of the run was handed to the engine,
	// done[i] when the engine came back for the next one; pulled[k] is when
	// corpus tweet k was last pulled (alerts map back through it). All are
	// offsets from start.
	pulls, done []time.Duration
	pulled      []time.Duration
	windows     []window
	open        window // the window being filled
	before      speed  // the probe that preceded it
}

// window is one stretch of an offline run between two probes.
type window struct {
	first, n int // index of its first tweet in pulls, and how many
	from     time.Time
	elapsed  time.Duration
	cpuS     float64 // own CPU seconds: at open the running total, at close the window's
	steal    float64 // host steal: at open the running ticks, at close the window's share of CPU time
	speed    speed
	spoiled  bool // more than maxStealShare stolen: left out
}

func newTimedSource(tweets []twitterdata.Tweet, from int, dur time.Duration, align, threads int, probe *prober) *timedSource {
	s := &timedSource{
		tweets: tweets, pos: from % len(tweets), align: align, threads: threads, probe: probe, dur: dur,
		pulls: make([]time.Duration, 0, 1<<20), done: make([]time.Duration, 0, 1<<20), pulled: make([]time.Duration, len(tweets)),
	}
	s.before = s.measure()
	s.start = time.Now()
	s.limit = s.start.Add(dur + time.Duration(graceShare*float64(dur)))
	s.open = window{from: s.start, cpuS: selfCPUSeconds(), steal: hostSteal()}
	return s
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure probes the machine's speed. A leg without a probe (the loopback
// cluster, which pulls one batch ahead on a goroutine of its own, so the
// probe would run beside the batch in flight) reads nominal speed throughout.
func (s *timedSource) measure() speed {
	if s.probe == nil {
		return 1
	}
	return s.probe.measure(s.threads)
}

// closeWindow ends the open window at now, probes, and opens the next one.
// After a window the host spoiled it first waits for the host to go quiet.
func (s *timedSource) closeWindow(now time.Time) {
	w := s.open
	w.n = len(s.pulls) - w.first
	w.elapsed, w.cpuS = now.Sub(w.from), selfCPUSeconds()-w.cpuS
	w.steal = stealShare(hostSteal()-w.steal, w.elapsed)
	after := s.measure()
	w.speed = between(s.before, after)
	if w.spoiled = w.steal > maxStealShare; w.spoiled {
		waitQuiet(s.limit)
		after = s.measure()
	} else {
		s.measured += w.elapsed
	}
	s.windows = append(s.windows, w)
	s.before = after
	s.open = window{first: len(s.pulls), from: time.Now(), cpuS: selfCPUSeconds(), steal: hostSteal()}
}

func (s *timedSource) Next() (twitterdata.Tweet, bool) {
	now := time.Now()
	if len(s.pulls) > len(s.done) {
		s.done = append(s.done, now.Sub(s.start))
	}
	if len(s.pulls)%s.align == 0 && len(s.pulls) > s.open.first &&
		(now.Sub(s.open.from) >= offlineWindow || now.After(s.limit)) {
		s.closeWindow(now)
		if s.measured >= s.dur || !s.open.from.Before(s.limit) {
			s.end = now
			return twitterdata.Tweet{}, false
		}
		now = s.open.from
	}
	at := now.Sub(s.start)
	s.pulls = append(s.pulls, at)
	s.pulled[s.pos] = at
	t := s.tweets[s.pos]
	if t.IsLabeled() {
		s.labeled++
	}
	if s.pos++; s.pos == len(s.tweets) {
		s.pos = 0
	}
	return t, true
}

// offlineRun is one timed engine leg.
type offlineRun struct {
	kind     kind
	p        *core.Pipeline
	src      *timedSource
	stats    engine.Stats
	verdicts []sample // micro-batch: pull -> alert callback
	alerts   int64
	before   core.SnapshotStats
}

// rounds turns the run's windows into readings: tweets per second and own
// CPU per tweet over each window, and the window's verdict latencies — for
// the sequential engine the time from handing a tweet over to the engine
// coming back for the next, for the micro-batch engines the alert delays of
// the tweets pulled in the window.
func (r *offlineRun) rounds() []round {
	byWindow := make([][]float64, len(r.src.windows))
	if r.kind == kindSequential {
		for i, w := range r.src.windows {
			for j := w.first; j < w.first+w.n && j < len(r.src.done); j++ {
				byWindow[i] = append(byWindow[i], float64(r.src.done[j]-r.src.pulls[j])/float64(time.Millisecond))
			}
		}
	} else {
		sort.Slice(r.verdicts, func(a, b int) bool { return r.verdicts[a].due < r.verdicts[b].due })
		i := 0
		for _, v := range r.verdicts {
			for i+1 < len(r.src.windows) && v.due >= r.src.windows[i+1].from.Sub(r.src.start) {
				i++
			}
			byWindow[i] = append(byWindow[i], float64(v.latency)/float64(time.Millisecond))
		}
	}
	var kept, spoiled []round
	for i, w := range r.src.windows {
		lat := byWindow[i]
		if w.n == 0 {
			continue
		}
		sort.Float64s(lat)
		rd := round{
			SteadySpeed: w.speed, BurstSpeed: w.speed,
			P50ms: percentile(lat, 0.50), P90ms: percentile(lat, 0.90), P99ms: percentile(lat, 0.99), Verdicts: len(lat),
			TPS: float64(w.n) / w.elapsed.Seconds(), CPUUS: w.cpuS * 1e6 / float64(w.n), StealShare: w.steal,
		}
		if w.spoiled {
			spoiled = append(spoiled, rd)
		} else {
			kept = append(kept, rd)
		}
	}
	if len(kept) < minRounds {
		kept = append(kept, spoiled...) // the host never went quiet: a disturbed reading beats none
	}
	return kept
}

// tps is the run's uncalibrated throughput: the median window's.
func (r *offlineRun) tps() float64 {
	_, raw := summarizeRounds(r.rounds())
	return raw["throughput_tps"]
}

func (r *offlineRun) elapsed() time.Duration { return r.src.end.Sub(r.src.start) }

// newOfflinePipeline builds the pipeline both offline workloads run — the
// same configuration the server's shards use — and warms it on the head of
// the corpus.
func newOfflinePipeline(tweets []twitterdata.Tweet) *core.Pipeline {
	p := core.NewPipeline(referenceOptions())
	for i := 0; i < offlineWarmup; i++ {
		p.Process(&tweets[i])
	}
	return p
}

// runEngine times one engine over the corpus for dur. Verdict latency is
// measured from outside: for the sequential engine, from one pull to the
// next (pull -> processing returned); for the micro-batch engines, from a
// tweet's pull to its alert callback, which fires at the end of its batch.
func runEngine(k kind, p *core.Pipeline, tweets []twitterdata.Tweet, dur time.Duration, cluster []string, probe *prober) (*offlineRun, error) {
	r := &offlineRun{kind: k, p: p, before: p.SnapshotStats()}
	alertsBefore := p.Alerter().Raised()
	align, threads := 1, 1
	if k == kindMicroBatch {
		align, threads = microBatchSize, runtime.NumCPU()
	}
	var badID string
	p.Alerter().Subscribe(core.AlertSinkFunc(func(a core.Alert) {
		idx, ok := parseID([]byte(a.TweetID))
		if !ok || idx >= uint64(len(tweets)) {
			badID = a.TweetID
			return
		}
		r.alerts++
		if k == kindMicroBatch && cluster == nil {
			at := r.src.pulled[idx]
			r.verdicts = append(r.verdicts, sample{due: at, latency: time.Since(r.src.start) - at})
		}
	}))
	runtime.GC() // set-up garbage is not the engine's to collect
	r.src = newTimedSource(tweets, offlineWarmup, dur, align, threads, probe)
	var err error
	switch {
	case k == kindSequential:
		r.stats = engine.RunSequential(p, r.src)
	case cluster == nil:
		cfg := engine.SparkLocalConfig(runtime.NumCPU())
		cfg.BatchSize = microBatchSize
		r.stats, err = engine.RunMicroBatch(p, r.src, cfg)
	default:
		r.stats, err = engine.RunCluster(p, r.src, engine.ClusterConfig{
			Executors: cluster, BatchSize: microBatchSize, TasksPerExecutor: 1})
	}
	if err != nil {
		return nil, err
	}
	if r.src.end.IsZero() {
		return nil, fmt.Errorf("engine stopped pulling before the source ended")
	}

	// Outputs: every pulled tweet processed, every labeled tweet evaluated,
	// every alert about a tweet of this corpus and counted by the alerter.
	fed := int64(len(r.src.pulls))
	switch {
	case r.stats.Processed != fed:
		return nil, fmt.Errorf("engine processed %d of %d tweets pulled", r.stats.Processed, fed)
	case badID != "":
		return nil, fmt.Errorf("alert for tweet id %q, which is not in the corpus", badID)
	case p.Alerter().Raised()-alertsBefore != r.alerts:
		return nil, fmt.Errorf("alerter raised %d alerts, sink saw %d", p.Alerter().Raised()-alertsBefore, r.alerts)
	case r.alerts == 0 || fed == 0:
		return nil, fmt.Errorf("no work done: %d tweets, %d alerts", fed, r.alerts)
	}
	return r, nil
}

// setUpOffline is an offline workload's set-up: materialise the corpus,
// build and warm the pipeline.
func (e *env) setUpOffline() ([]twitterdata.Tweet, *core.Pipeline, float64) {
	start := time.Now()
	tweets := buildOfflineCorpus(e.seed)
	p := newOfflinePipeline(tweets)
	return tweets, p, time.Since(start).Seconds()
}

// runOffline runs pipeline_offline: untraced for the end-to-end metrics,
// traced for the layer ledger and the engine legs.
func (e *env) runOffline(w workload, traced bool) (*result, error) {
	var (
		tweets []twitterdata.Tweet
		p      *core.Pipeline
		times  []float64
	)
	repeats := setupRepeats
	if traced {
		repeats = 1 // set-up time is an end-to-end metric
	}
	before := e.probe.measure(1)
	for i := 0; i < repeats; i++ {
		var s float64
		tweets, p, s = e.setUpOffline()
		after := e.probe.measure(1)
		times = append(times, s/float64(between(before, after)))
		before = after
	}
	if traced {
		return e.traceOffline(w, tweets, p)
	}
	r, err := runEngine(w.kind, p, tweets, e.phase(1), nil, e.probe)
	if err != nil {
		return nil, err
	}
	evaluated := p.Summary().Instances
	var warmLabeled int64
	for i := 0; i < offlineWarmup; i++ {
		if tweets[i].IsLabeled() {
			warmLabeled++
		}
	}
	if evaluated != warmLabeled+r.src.labeled {
		return nil, fmt.Errorf("prequential evaluator saw %d labeled tweets, %d were fed", evaluated, warmLabeled+r.src.labeled)
	}
	rss, err := peakRSSMB(selfPID)
	if err != nil {
		return nil, err
	}
	rounds := r.rounds()
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no window of the run completed")
	}
	cal, raw := summarizeRounds(rounds)
	cal["peak_rss_mb"], cal["setup_s"] = rss, median(times)
	samples := 0
	for _, rd := range rounds {
		samples += rd.Verdicts
	}
	return &result{
		attempted: r.stats.Processed, metrics: cal, raw: raw, rounds: rounds,
		notes: []string{
			fmt.Sprintf("%d tweets in %s (%.2f passes over %d) in %d windows of %s with a probe between any two (%d are read: the rest were spoiled by host steal), %d alerts, %d verdict-latency samples, F1 %.4f",
				r.stats.Processed, r.elapsed().Round(time.Millisecond), float64(r.stats.Processed)/float64(len(tweets)),
				len(tweets), len(r.src.windows), offlineWindow, len(rounds), r.alerts, samples, p.Summary().F1),
			fmt.Sprintf("probe unit took %.3f of its nominal CPU time over the run; uncalibrated medians: %.0f tweets/s, %.2f us/tweet, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms",
				raw["machine_speed"], raw["throughput_tps"], raw["cpu_us_per_tweet"],
				raw["verdict_latency_p50_ms"], raw["verdict_latency_p90_ms"], raw["verdict_latency_p99_ms"]),
		},
	}, nil
}
