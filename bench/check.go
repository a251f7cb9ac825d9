package main

import (
	"context"
	"fmt"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/norm"
	"redhanded/internal/serve"
	"redhanded/internal/twitterdata"
)

// referenceOptions is the pipeline configuration serverArgs asks aggroserve
// for, spelled out against core.Options: the flags the harness passes plus
// the defaults of the flags it leaves alone.
func referenceOptions() core.Options {
	o := core.DefaultOptions()
	o.Model = core.ModelHT
	o.Scheme = core.ThreeClass
	o.Preprocess = true
	o.Normalization = norm.MinMaxRobust
	o.AdaptiveBoW = true
	o.AlertThreshold = 0.5
	o.Users.TTL = 24 * time.Hour
	o.Users.Escalation.Threshold = 0.6
	o.Users.Escalation.MinTweets = 8
	return o
}

// reference is the in-process oracle of the correctness pass: one
// core.Pipeline per shard, fed the same tweets in the same per-shard order
// the server sees them.
type reference struct {
	shards []*core.Pipeline
	alerts map[uint64]bool
}

func newReference(shards int) *reference {
	ref := &reference{alerts: make(map[uint64]bool)}
	for i := 0; i < shards; i++ {
		p := core.NewPipeline(referenceOptions())
		p.Alerter().Subscribe(core.AlertSinkFunc(func(a core.Alert) {
			if seq, ok := parseID([]byte(a.TweetID)); ok {
				ref.alerts[seq] = true
			}
		}))
		ref.shards = append(ref.shards, p)
	}
	return ref
}

func (ref *reference) feed(c *corpus, n int) error {
	var body []byte
	for seq := 0; seq < n; seq++ {
		body = c.appendBatch(body[:0], uint64(seq), 1)
		tw, err := twitterdata.Unmarshal(body[:len(body)-1])
		if err != nil {
			return err
		}
		ref.shards[serve.ShardFor(tw.User.IDStr, len(ref.shards))].Process(&tw)
	}
	return nil
}

// equal compares what /v1/stats reports, shard by shard and bit for bit,
// with the reference pipelines.
func (ref *reference) equal(st serve.Stats, when string) error {
	if len(st.PerShard) != len(ref.shards) {
		return fmt.Errorf("%s: server reports %d shards, want %d", when, len(st.PerShard), len(ref.shards))
	}
	for i, got := range st.PerShard {
		p := ref.shards[i]
		users := p.Users()
		want := serve.ShardStats{
			Processed:       p.Processed(),
			AlertsRaised:    p.Alerter().Raised(),
			SessionVerdicts: users.SessionVerdicts(),
			Escalations:     users.Escalations(),
			Report:          p.Summary(),
		}
		if got.Processed != want.Processed || got.AlertsRaised != want.AlertsRaised ||
			got.SessionVerdicts != want.SessionVerdicts || got.Escalations != want.Escalations ||
			got.Report != want.Report {
			return fmt.Errorf("%s: shard %d diverges from the in-process reference:\n  server    processed=%d alerts=%d sessions=%d escalations=%d report=%+v\n  reference processed=%d alerts=%d sessions=%d escalations=%d report=%+v",
				when, i,
				got.Processed, got.AlertsRaised, got.SessionVerdicts, got.Escalations, got.Report,
				want.Processed, want.AlertsRaised, want.SessionVerdicts, want.Escalations, want.Report)
		}
	}
	return nil
}

// check is the correctness pass every serving invocation runs before it
// times anything. A retweet-heavy corpus goes through one connection, in
// order, into a 2-shard server with the WAL on; the server's per-shard
// counters and prequential report must equal the reference's, and the alert
// ids the SSE client received must be the reference's alert ids. Then the
// server is killed with SIGKILL and restarted with -replay, and the same
// equality must hold again: replay is exactly-once.
//
// It returns the replay rate, the one layer metric only this pass can see.
func (e *env) check() (float64, error) {
	c, err := buildServingCorpus(e.seed+1, checkRetweets, checkTweets)
	if err != nil {
		return 0, err
	}
	ref := newReference(checkShards)
	if err := ref.feed(c, checkTweets); err != nil {
		return 0, err
	}
	wal, err := e.scratchDir("check-wal")
	if err != nil {
		return 0, err
	}
	srv, err := startServer(e.bin, checkShards, walArgs(wal)...)
	if err != nil {
		return 0, err
	}
	load, err := newLoader(srv, c, kindFirehose)
	if err != nil {
		srv.kill()
		return 0, err
	}
	load.senders = 1 // one connection, sequential batches: per-shard order is the corpus order
	err = load.warm(checkTweets)
	var st serve.Stats
	if err == nil {
		st, err = srv.stats()
	}
	if err == nil {
		err = ref.equal(st, "live")
	}
	if err == nil {
		err = checkAlerts(srv, load.alerts, ref, st.AlertsRaised)
	}
	load.close()
	srv.kill() // SIGKILL: the crash the replay has to recover from
	if err != nil {
		return 0, err
	}

	again, err := startServer(e.bin, checkShards, append(walArgs(wal), "-replay")...)
	if err != nil {
		return 0, fmt.Errorf("restart with -replay: %w", err)
	}
	defer again.kill()
	if st, err = again.stats(); err != nil {
		return 0, err
	}
	if err := ref.equal(st, "after kill -9 and -replay"); err != nil {
		return 0, err
	}
	// Both starts pay the same process start-up; the difference is replay.
	replayS := max(again.readyS-srv.readyS, 1e-3)
	return checkTweets / replayS, nil
}

// checkAlerts requires the SSE client to have received exactly the
// reference's alerts. The hub drops events for a subscriber whose buffer is
// full rather than stall the pipeline; drops the server itself counted are
// allowed for, one for one, and anything else is a failure.
func checkAlerts(srv *server, alerts *alertReader, ref *reference, raised int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var dropped int64
	for {
		m, err := srv.metrics()
		if err != nil {
			return err
		}
		dropped = int64(m.sums["redhanded_alerts_dropped_total"])
		if int64(alerts.count())+dropped >= raised || ctx.Err() != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, err := alerts.since(0)
	if err != nil {
		return fmt.Errorf("SSE stream: %w", err)
	}
	seen := make(map[uint64]bool, len(got))
	for _, a := range got {
		if !ref.alerts[a.seq] {
			return fmt.Errorf("SSE delivered an alert for tweet %d, which the reference did not alert on", a.seq)
		}
		if seen[a.seq] {
			return fmt.Errorf("SSE delivered the alert for tweet %d twice", a.seq)
		}
		seen[a.seq] = true
	}
	if missing := int64(len(ref.alerts) - len(seen)); missing > dropped {
		return fmt.Errorf("SSE delivered %d of the reference's %d alerts, and the server counted only %d dropped",
			len(seen), len(ref.alerts), dropped)
	}
	return nil
}
