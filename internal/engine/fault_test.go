package engine

import (
	"encoding/gob"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// fastReconnect keeps fault tests snappy: failed executors are abandoned
// after a few quick attempts.
func fastReconnect(cfg ClusterConfig) ClusterConfig {
	cfg.timing.maxConnAttempts = 3
	cfg.timing.reconnectBackoff = 10 * time.Millisecond
	cfg.timing.allDownWait = 2 * time.Second
	return cfg
}

// waitHandled polls until the executor served at least n shares, for at
// most 10 s.
func waitHandled(ex *Executor, n int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for ex.Handled() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("executor stuck at %d shares, want >= %d", ex.Handled(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// crashOnShare arms an executor to die abruptly (no drain) at the start of
// its nth share, guaranteeing the driver loses that share mid-batch.
func crashOnShare(ex *Executor, nth int64) {
	var calls atomic.Int64
	ex.mu.Lock()
	ex.shareHook = func() {
		if calls.Add(1) == nth {
			ex.kill()
		}
	}
	ex.mu.Unlock()
}

// TestClusterSurvivesExecutorKill kills one of three executors mid-run:
// the run must complete with no lost tweets, the dead node's shares
// failing over to the survivors.
func TestClusterSurvivesExecutorKill(t *testing.T) {
	exs := make([]*Executor, 3)
	addrs := make([]string, 3)
	for i := range exs {
		ex, err := StartExecutor("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		exs[i] = ex
		addrs[i] = ex.Addr()
	}
	data := testDataset(31, 6000, 3000, 600)
	p := core.NewPipeline(testOptions())
	// Crash (no drain) at the start of the executor's 4th share: the driver
	// loses that share mid-batch and must reassign it to the survivors.
	crashOnShare(exs[0], 4)
	stats, err := RunCluster(p, NewSliceSource(data), fastReconnect(ClusterConfig{
		Executors: addrs, BatchSize: 600, TasksPerExecutor: 2,
	}))
	if err != nil {
		t.Fatalf("run did not survive the kill: %v", err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d tweets, want %d (lost work)", stats.Processed, len(data))
	}
	if stats.Failovers == 0 {
		t.Fatal("no failover recorded despite a mid-run kill")
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("post-failover F1 = %v, want >= 0.75", f1)
	}
}

// TestClusterFailoverMatchesSequential is the end-to-end equivalence
// proof: a 3-executor cluster run whose first node fails produces exactly
// the sequential engine's confusion matrix. The configuration is chosen so
// every step is bit-exact: batch size 1 with one task makes the cluster's
// batch semantics collapse to test-then-train per tweet; SLR's
// single-accumulator apply equals its sequential SGD step; and min-max
// normalization merges ranges exactly. Failover cannot perturb any of it
// because a share's outcome depends only on the broadcast state. With batch
// size 1 each batch is one share, and the free nodes take the shares from
// the queue in turn, so the faulty node 0 serves every third or so and
// reaches its crash point: killed mid-share, it sends that share through
// failover and leaves the rest to the survivors; returning corrupt deltas,
// it fails each share it takes over on decode, reconnects, and takes
// another.
func TestClusterFailoverMatchesSequential(t *testing.T) {
	opts := testOptions()
	opts.Model = core.ModelSLR
	opts.Normalization = norm.MinMax
	// Each corrupt share costs a reconnect; at this size that is a few dozen.
	data := testDataset(32, 700, 350, 70)
	for _, tc := range []struct {
		name  string
		fault func(*Executor)
	}{
		{"kill", func(ex *Executor) { crashOnShare(ex, 100) }},
		{"corrupt", func(ex *Executor) { ex.corruptDeltas.Store(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := core.NewPipeline(opts)
			RunSequential(seq, NewSliceSource(data))

			exs := make([]*Executor, 3)
			addrs := make([]string, 3)
			for i := range exs {
				ex, err := StartExecutor("127.0.0.1:0", 1)
				if err != nil {
					t.Fatal(err)
				}
				defer ex.Close()
				exs[i] = ex
				addrs[i] = ex.Addr()
			}
			clustered := core.NewPipeline(opts)
			tc.fault(exs[0])
			stats, err := RunCluster(clustered, NewSliceSource(data), fastReconnect(ClusterConfig{
				Executors: addrs, BatchSize: 1, TasksPerExecutor: 1,
			}))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Processed != int64(len(data)) {
				t.Fatalf("processed %d, want %d", stats.Processed, len(data))
			}
			if stats.Failovers == 0 {
				t.Fatal("fault did not exercise failover")
			}

			mSeq, mCl := seq.Evaluator().Matrix(), clustered.Evaluator().Matrix()
			if mSeq.Total() != mCl.Total() {
				t.Fatalf("instances differ: sequential %d, cluster %d", mSeq.Total(), mCl.Total())
			}
			for i := 0; i < mSeq.NumClasses(); i++ {
				for j := 0; j < mSeq.NumClasses(); j++ {
					if mSeq.Count(i, j) != mCl.Count(i, j) {
						t.Errorf("confusion[%d][%d]: sequential %d, cluster-with-failover %d",
							i, j, mSeq.Count(i, j), mCl.Count(i, j))
					}
				}
			}
			if got, want := clustered.Summary(), seq.Summary(); got != want {
				t.Errorf("prequential report differs:\ncluster    %+v\nsequential %+v", got, want)
			}
			if got, want := clustered.Extractor().BoW().Size(), seq.Extractor().BoW().Size(); got != want {
				t.Errorf("BoW size differs: cluster %d, sequential %d", got, want)
			}
		})
	}
}

// TestClusterARFMatchesSequential extends the equivalence proof to the
// Adaptive Random Forest: a seeded 3-executor ARF run (batch size 1, one
// task) that loses an executor mid-stream reproduces the sequential
// engine's confusion matrix bit-for-bit. What makes this exact:
// counter-based bagging weights (the same logical instance draws the same
// Poisson weight on any node, including a failover re-run), the
// train-then-detect member ordering the merge replays, Chan-merge
// arithmetic shared by Train and the accumulator path, and gated detectors
// so the sequential ADWIN path equals the gated batch replay.
func TestClusterARFMatchesSequential(t *testing.T) {
	opts := testOptions()
	opts.Model = core.ModelARF
	opts.Normalization = norm.MinMax
	opts.ARF = stream.ARFConfig{EnsembleSize: 3, Seed: 5, GateOnErrorIncrease: true}
	data := testDataset(41, 500, 250, 50)

	seq := core.NewPipeline(opts)
	seqStats := RunSequential(seq, NewSliceSource(data))

	exs := make([]*Executor, 3)
	addrs := make([]string, 3)
	for i := range exs {
		ex, err := StartExecutor("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		exs[i] = ex
		addrs[i] = ex.Addr()
	}
	clustered := core.NewPipeline(opts)
	// With batch size 1 each batch is one share, and the free nodes take
	// the shares in turn, so node 0 still reaches its crash point: the share
	// it dies on fails over and the survivors serve the rest.
	crashOnShare(exs[0], 120)
	stats, err := RunCluster(clustered, NewSliceSource(data), fastReconnect(ClusterConfig{
		Executors: addrs, BatchSize: 1, TasksPerExecutor: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if stats.Failovers == 0 {
		t.Fatal("kill did not exercise failover")
	}

	mSeq, mCl := seq.Evaluator().Matrix(), clustered.Evaluator().Matrix()
	if mSeq.Total() != mCl.Total() {
		t.Fatalf("instances differ: sequential %d, cluster %d", mSeq.Total(), mCl.Total())
	}
	for i := 0; i < mSeq.NumClasses(); i++ {
		for j := 0; j < mSeq.NumClasses(); j++ {
			if mSeq.Count(i, j) != mCl.Count(i, j) {
				t.Errorf("confusion[%d][%d]: sequential %d, cluster-with-failover %d",
					i, j, mSeq.Count(i, j), mCl.Count(i, j))
			}
		}
	}
	if got, want := clustered.Summary(), seq.Summary(); got != want {
		t.Errorf("prequential report differs:\ncluster    %+v\nsequential %+v", got, want)
	}
	if got, want := clustered.Extractor().BoW().Size(), seq.Extractor().BoW().Size(); got != want {
		t.Errorf("BoW size differs: cluster %d, sequential %d", got, want)
	}
	// Drift reactions replay identically at the driver merge.
	if stats.Warnings != seqStats.Warnings || stats.Drifts != seqStats.Drifts ||
		stats.TreeReplacements != seqStats.TreeReplacements {
		t.Errorf("drift telemetry differs: cluster {w:%d d:%d r:%d}, sequential {w:%d d:%d r:%d}",
			stats.Warnings, stats.Drifts, stats.TreeReplacements,
			seqStats.Warnings, seqStats.Drifts, seqStats.TreeReplacements)
	}
}

// TestClusterCorruptARFDeltaFailsOver injects corrupt ARF delta blobs on
// one executor: the driver must reject them when the share's response
// decodes (the forest delta decode validates shape and per-member tree
// versions), fail the share over to the healthy node, and finish with
// uncorrupted results.
func TestClusterCorruptARFDeltaFailsOver(t *testing.T) {
	good, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.corruptDeltas.Store(true)

	opts := testOptions()
	opts.Model = core.ModelARF
	opts.ARF.EnsembleSize = 5
	data := testDataset(42, 2000, 1000, 200)
	p := core.NewPipeline(opts)
	stats, err := RunCluster(p, NewSliceSource(data), fastReconnect(ClusterConfig{
		Executors: []string{good.Addr(), bad.Addr()}, BatchSize: 500, TasksPerExecutor: 2,
	}))
	if err != nil {
		t.Fatalf("corrupt ARF deltas aborted the run: %v", err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if stats.Failovers == 0 {
		t.Fatal("corrupt ARF deltas never triggered failover")
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("F1 after corrupt-ARF-delta failover = %v, want >= 0.75", f1)
	}
}

// TestClusterCorruptDeltaFailsOver injects corrupt delta blobs on one
// executor: the driver must detect them when the share's response decodes,
// fail the share over to the healthy node, and finish with uncorrupted
// results.
func TestClusterCorruptDeltaFailsOver(t *testing.T) {
	good, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.corruptDeltas.Store(true)

	data := testDataset(33, 2000, 1000, 200)
	p := core.NewPipeline(testOptions())
	stats, err := RunCluster(p, NewSliceSource(data), fastReconnect(ClusterConfig{
		Executors: []string{good.Addr(), bad.Addr()}, BatchSize: 500, TasksPerExecutor: 2,
	}))
	if err != nil {
		t.Fatalf("corrupt deltas aborted the run: %v", err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if stats.Failovers == 0 {
		t.Fatal("corrupt deltas never triggered failover")
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("F1 after corrupt-delta failover = %v, want >= 0.75", f1)
	}
}

// TestClusterReconnectResyncsVocab replaces an executor mid-run with a
// fresh process on the same address, then replaces the replacement: the
// driver must reconnect both times — the second to a node that went down
// again after a reconnect — and send each new session the full state,
// including the adaptively-grown vocabulary it has never seen.
func TestClusterReconnectResyncsVocab(t *testing.T) {
	exA, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer exA.Close()
	exB, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	addrB := exB.Addr()

	// replace closes ex once it has served two shares and rebinds its
	// address: the driver's reconnect loop finds the replacement.
	replace := func(ex *Executor) *Executor {
		if err := waitHandled(ex, 2); err != nil {
			t.Error(err)
			return nil
		}
		ex.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			next, err := StartExecutor(addrB, 2)
			if err == nil {
				return next
			}
			if time.Now().After(deadline) {
				t.Errorf("could not rebind %s: %v", addrB, err)
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var exB2, exB3 *Executor
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		if exB2 = replace(exB); exB2 != nil {
			exB3 = replace(exB2)
		}
	}()

	data := testDataset(34, 8000, 4000, 800)
	p := core.NewPipeline(testOptions()) // adaptive BoW on: vocabulary grows mid-run
	cfg := fastReconnect(ClusterConfig{
		Executors: []string{exA.Addr(), addrB}, BatchSize: 400, TasksPerExecutor: 2,
	})
	// Give the reconnect loop room for the replacement to bind on slow CI.
	cfg.timing.maxConnAttempts = 10
	stats, err := RunCluster(p, NewSliceSource(data), cfg)
	<-swapped
	for _, ex := range []*Executor{exB2, exB3} {
		if ex != nil {
			defer ex.Close()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if stats.Reconnects < 2 {
		t.Fatalf("driver reconnected %d times, want >= 2 (one per replacement)", stats.Reconnects)
	}
	if exB3 == nil || exB3.Handled() == 0 {
		t.Fatal("second replacement executor served no shares after reconnecting")
	}
	seedSize := len(core.NewPipeline(testOptions()).Extractor().BoW().Words())
	if got := exB3.LastVocabSize(); got <= seedSize {
		t.Fatalf("second replacement executor vocab = %d words, want > %d (reconnect did not deliver the grown vocabulary)", got, seedSize)
	}
	if got, want := exB3.LastVocabSize(), p.Extractor().BoW().Size(); got > want {
		t.Fatalf("second replacement executor vocab = %d words, driver has %d", got, want)
	}
}

// handExecutor listens on a loopback port until the test ends and runs
// serve on each connection it accepts: an executor whose side of the wire
// protocol the test writes by hand. It returns the listen address.
func handExecutor(t *testing.T, serve func(enc *gob.Encoder, dec *gob.Decoder)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(gob.NewEncoder(conn), gob.NewDecoder(conn))
			}()
		}
	}()
	return ln.Addr().String()
}

// misaddressingExecutor acks the hello, ignores broadcasts and answers
// every data frame as if it were the share one tweet further on (Lo+1).
func misaddressingExecutor(t *testing.T) string {
	return handExecutor(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		for {
			var msg wireMsg
			if dec.Decode(&msg) != nil {
				return
			}
			resp := batchResponse{Seq: msg.Seq}
			switch msg.Kind {
			case msgHello:
			case msgBroadcast:
				continue
			case msgData:
				resp.Lo, resp.Hi = msg.Lo+1, msg.Hi
			default:
				return
			}
			if enc.Encode(&resp) != nil {
				return
			}
		}
	})
}

// failsOverWithin10s runs data through cfg's cluster, whose first node is
// a faulty hand-written executor, and requires the run to end within 10 s
// with every tweet processed and at least one share failed over.
func failsOverWithin10s(t *testing.T, cfg ClusterConfig, data []twitterdata.Tweet) {
	t.Helper()
	p := core.NewPipeline(testOptions())
	type result struct {
		stats Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := RunCluster(p, NewSliceSource(data), cfg)
		done <- result{stats, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run still going after 10s: the faulty node left its share waiting")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", res.stats.Processed, len(data))
	}
	if res.stats.Failovers == 0 {
		t.Fatal("the faulty node never failed a share over")
	}
}

// TestClusterMisaddressedResponseFailsOver runs a node whose responses name
// another share than the one sent: each such exchange must fail and its
// share fail over to the real executor at once, instead of waiting out the
// share timeout for an answer that never comes.
func TestClusterMisaddressedResponseFailsOver(t *testing.T) {
	addrs := []string{misaddressingExecutor(t), startCluster(t, 1, 2)[0]}
	failsOverWithin10s(t, fastReconnect(ClusterConfig{
		Executors: addrs, BatchSize: 300, TasksPerExecutor: 2,
	}), testDataset(43, 1200, 600, 120))
}

// wedgedExecutor acks the hello, then reads every frame and never answers
// one: a connected executor that has stopped working.
func wedgedExecutor(t *testing.T) string {
	return handExecutor(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		var hello wireMsg
		if dec.Decode(&hello) != nil || enc.Encode(&batchResponse{Seq: hello.Seq}) != nil {
			return
		}
		for dec.Decode(new(wireMsg)) == nil {
		}
	})
}

// TestClusterWedgedExecutorFailsOver runs a node that takes shares and
// never answers: no transport error ever surfaces, so only the share
// timeout can fail its shares over to the real executor.
func TestClusterWedgedExecutorFailsOver(t *testing.T) {
	addrs := []string{wedgedExecutor(t), startCluster(t, 1, 2)[0]}
	cfg := fastReconnect(ClusterConfig{Executors: addrs, BatchSize: 480, TasksPerExecutor: 2})
	cfg.timing.shareTimeout = 500 * time.Millisecond
	failsOverWithin10s(t, cfg, testDataset(44, 600, 300, 60))
}

// TestClusterDeltaMatchesFull proves eliding broadcast state by key
// changes only wire cost, never results: the same labeled/unlabeled mix
// through eliding and full-re-broadcast clusters yields identical
// prequential reports, with the eliding run sending fewer broadcast bytes
// (the vocabulary moves only every 500 labeled tweets).
func TestClusterDeltaMatchesFull(t *testing.T) {
	addrs := startCluster(t, 3, 2)
	labeled := testDataset(35, 2000, 1000, 200)

	run := func(full bool) (Stats, *core.Pipeline) {
		p := core.NewPipeline(testOptions())
		src := NewMixedSource(labeled, twitterdata.NewUnlabeledSource(135, 10), 16000)
		stats, err := RunCluster(p, src, ClusterConfig{
			Executors: addrs, BatchSize: 500, TasksPerExecutor: 2, fullBroadcast: full,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, p
	}
	fullStats, fullP := run(true)
	deltaStats, deltaP := run(false)

	if got, want := deltaP.Summary(), fullP.Summary(); got != want {
		t.Errorf("elided broadcasts changed results:\nelided %+v\nfull   %+v", got, want)
	}
	if !reflect.DeepEqual(deltaP.Evaluator().Matrix(), fullP.Evaluator().Matrix()) {
		t.Error("elided broadcasts changed the confusion matrix")
	}
	if deltaStats.BroadcastBytes >= fullStats.BroadcastBytes {
		t.Errorf("eliding broadcast bytes %d not below full %d", deltaStats.BroadcastBytes, fullStats.BroadcastBytes)
	}
}

// TestClusterSteadyStateBroadcastShrinks runs an unlabeled-only stream
// (model and vocabulary never change after the first batch) and checks the
// steady-state broadcast cost per batch collapses versus re-sending the
// full state: every batch after the first elides the model and the
// vocabulary by key. The ARF's forest is elided whole, like the tree.
func TestClusterSteadyStateBroadcastShrinks(t *testing.T) {
	addrs := startCluster(t, 2, 2)
	for _, tc := range []struct {
		name      string
		model     core.ModelKind
		unlabeled int
		// shrink is the factor the per-batch average must drop by. The first
		// steady batch still ships the full state to the fresh connections,
		// so the average carries one full payload over unlabeled/500
		// batches; bench/'s engine.cluster_broadcast_bytes_per_batch
		// amortizes over more.
		shrink int64
	}{
		{"HT", core.ModelHT, 5000, 2},
		{"ARF", core.ModelARF, 10000, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(full bool) (perBatch int64) {
				opts := testOptions()
				opts.Model = tc.model
				opts.ARF.EnsembleSize = 5
				p := core.NewPipeline(opts)
				cfg := ClusterConfig{Executors: addrs, BatchSize: 500, TasksPerExecutor: 2, fullBroadcast: full}
				// Warm the model so its blob has realistic size.
				if _, err := RunCluster(p, NewSliceSource(testDataset(36, 3000, 1500, 300)), cfg); err != nil {
					t.Fatal(err)
				}
				stats, err := RunCluster(p, NewSliceSource(unlabeledTweets(37, tc.unlabeled)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return stats.BroadcastBytes / int64(stats.Batches)
			}
			full, elided := measure(true), measure(false)
			if elided*tc.shrink > full {
				t.Errorf("steady-state broadcast bytes/batch: elided %d, full %d — expected at least %dx shrink", elided, full, tc.shrink)
			}
		})
	}
}

// dialSession opens a hand-driven SLR session with ex and checks the hello
// ack.
func dialSession(t *testing.T, ex *Executor) (net.Conn, *gob.Encoder, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", ex.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&wireMsg{Kind: msgHello, Seq: -1, Proto: clusterProtoVersion, ModelKind: "SLR"}); err != nil {
		t.Fatal(err)
	}
	var ack batchResponse
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err != "" {
		t.Fatalf("hello rejected: %s", ack.Err)
	}
	return conn, enc, dec
}

// fullBroadcastFrame returns the broadcast a fresh session of an SLR
// pipeline receives: the model and the whole vocabulary under their keys.
func fullBroadcastFrame(t *testing.T) wireMsg {
	t.Helper()
	opts := testOptions()
	opts.Model = core.ModelSLR
	p := core.NewPipeline(opts)
	modelBlob, err := p.Model().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	statsBlob, err := p.Normalizer().Stats.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bow := p.Extractor().BoW()
	return wireMsg{
		Kind: msgBroadcast, Seq: 1,
		ModelHash: stream.Hash64(modelBlob), ModelBlob: modelBlob, StatsBlob: statsBlob,
		VocabVersion: bow.SnapshotVersion(), VocabWords: bow.Words(),
		Preprocess: true, NormMode: int(p.Normalizer().Mode), Scheme: int(p.Options().Scheme),
	}
}

// TestExecutorCloseDrains drives the wire protocol by hand: Close while a
// share is in flight must deliver that share's response before the
// connection goes away, instead of hard-closing the listener under it.
func TestExecutorCloseDrains(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, enc, dec := dialSession(t, ex)
	bcast := fullBroadcastFrame(t)
	if err := enc.Encode(&bcast); err != nil {
		t.Fatal(err)
	}
	data := testDataset(38, 400, 200, 40)
	share := wireMsg{Kind: msgData, Seq: 1, Lo: 0, Hi: len(data), Tasks: 2, Tweets: data}
	if err := enc.Encode(&share); err != nil {
		t.Fatal(err)
	}
	// Close once the share is in flight; drain semantics guarantee its
	// response is flushed before the connection goes away.
	if err := waitHandled(ex, 1); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- ex.Close() }()

	var resp batchResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("in-flight share response lost during Close: %v", err)
	}
	if resp.Err != "" {
		t.Fatalf("share failed: %+v", resp)
	}
	if len(resp.Classified) != len(data) {
		t.Fatalf("classified %d of %d tweets", len(resp.Classified), len(data))
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close returned %v", err)
	}
	if ex.ActiveConns() != 0 {
		t.Fatalf("connections survived Close: %d", ex.ActiveConns())
	}
}

// TestExecutorRejectsElidedStateItLacks drives the broadcast rule by hand:
// a broadcast that elides a model or vocabulary the session does not hold
// answers the batch's share with an Err, never with results computed
// against the wrong state. Once the state has shipped whole, eliding it is
// exactly what keeps the steady state cheap.
func TestExecutorRejectsElidedStateItLacks(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	full := fullBroadcastFrame(t)
	data := testDataset(39, 40, 20, 4)
	for _, tc := range []struct {
		name  string
		elide func(*wireMsg)
	}{
		{"model", func(m *wireMsg) { m.ModelBlob = nil }},
		{"vocabulary", func(m *wireMsg) { m.VocabWords = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, enc, dec := dialSession(t, ex)
			share := func(bc wireMsg) batchResponse {
				t.Helper()
				if err := enc.Encode(&bc); err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(&wireMsg{Kind: msgData, Seq: bc.Seq, Lo: 0, Hi: len(data), Tasks: 1, Tweets: data}); err != nil {
					t.Fatal(err)
				}
				var resp batchResponse
				if err := dec.Decode(&resp); err != nil {
					t.Fatal(err)
				}
				return resp
			}
			elided := func(seq int64) wireMsg {
				bc := full
				bc.Seq = seq
				tc.elide(&bc)
				return bc
			}
			if resp := share(elided(1)); resp.Err == "" || len(resp.Classified) != 0 {
				t.Fatalf("fresh session served a broadcast eliding its %s: %+v", tc.name, resp)
			}
			whole := full
			whole.Seq = 2
			for _, bc := range []wireMsg{whole, elided(3)} {
				if resp := share(bc); resp.Err != "" || len(resp.Classified) != len(data) {
					t.Fatalf("batch %d: share failed: err %q, %d of %d classified", bc.Seq, resp.Err, len(resp.Classified), len(data))
				}
			}
		})
	}
}

// TestExecutorEndsSessionOnFrameForAnotherBatch drives the wire order by
// hand: a share's data frame follows its batch's broadcast, so a data frame
// for any other batch is a protocol violation that ends the session (the
// driver then fails the share over like any dead connection) instead of
// waiting on a broadcast that never comes.
func TestExecutorEndsSessionOnFrameForAnotherBatch(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	conn, enc, dec := dialSession(t, ex)
	bcast := fullBroadcastFrame(t) // seq 1
	if err := enc.Encode(&bcast); err != nil {
		t.Fatal(err)
	}
	data := testDataset(41, 40, 20, 4)
	if err := enc.Encode(&wireMsg{Kind: msgData, Seq: 2, Lo: 0, Hi: len(data), Tasks: 1, Tweets: data}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp batchResponse
	err = dec.Decode(&resp)
	if err == nil {
		t.Fatalf("executor answered a data frame for batch 2 after broadcast 1: %+v", resp)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("executor kept the session open after a data frame for another batch: %v", err)
	}
}

// TestClusterShutdownFrame checks the polite end-of-run: after RunCluster
// completes, executors drop their sessions without Close having to rip
// connections away, and Close reports no accept-loop error.
func TestClusterShutdownFrame(t *testing.T) {
	exs := make([]*Executor, 2)
	addrs := make([]string, 2)
	for i := range exs {
		ex, err := StartExecutor("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		exs[i] = ex
		addrs[i] = ex.Addr()
	}
	p := core.NewPipeline(testOptions())
	if _, err := RunCluster(p, NewSliceSource(testDataset(39, 600, 300, 60)), ClusterConfig{
		Executors: addrs, BatchSize: 300, TasksPerExecutor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	for i, ex := range exs {
		deadline := time.Now().Add(2 * time.Second)
		for ex.ActiveConns() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("executor %d still has %d sessions after the run ended", i, ex.ActiveConns())
			}
			time.Sleep(time.Millisecond)
		}
		if err := ex.Close(); err != nil {
			t.Errorf("executor %d Close = %v, want nil", i, err)
		}
	}
}

// TestExecutorErrSurfacesAcceptFailure checks the Err accessor: a listener
// torn down by anything other than Close is observable.
func TestExecutorErrSurfacesAcceptFailure(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	ex.ln.Close() // simulate the listener dying out from under the executor
	deadline := time.Now().Add(2 * time.Second)
	for ex.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("accept-loop failure never surfaced via Err")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ex.Close(); err == nil {
		t.Fatal("Close should return the accept-loop error")
	}
}

// TestClusterAllCorruptFailsRun bounds the share's failover: when every
// executor persistently returns corrupt deltas, the run must error out
// instead of cycling a failed exchange and a redial forever.
func TestClusterAllCorruptFailsRun(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.corruptDeltas.Store(true)
	p := core.NewPipeline(testOptions())
	_, err = RunCluster(p, NewSliceSource(testDataset(40, 300, 150, 30)), fastReconnect(ClusterConfig{
		Executors: []string{ex.Addr()}, BatchSize: 300, TasksPerExecutor: 1,
	}))
	if err == nil {
		t.Fatal("run with only corrupt executors reported success")
	}
}

// TestClusterAllExecutorsDownFailsRun pins the two ways a run ends when its
// only executor dies after serving one share and never comes back: while
// the node is still being redialed the run waits allDownWait and fails,
// and once the node is abandoned after its attempts the run fails at once.
func TestClusterAllExecutorsDownFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		attempts int
		wait     time.Duration
		want     string
	}{
		{"none reconnected", 1000, 300 * time.Millisecond, "none reconnected within"},
		{"abandoned", 3, 2 * time.Second, "every executor is gone"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := StartExecutor("127.0.0.1:0", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			crashOnShare(ex, 2) // the first share is served, the second kills it
			cfg := fastReconnect(ClusterConfig{Executors: []string{ex.Addr()}, BatchSize: 100, TasksPerExecutor: 1})
			cfg.timing.maxConnAttempts = tc.attempts
			cfg.timing.allDownWait = tc.wait
			start := time.Now()
			_, err = RunCluster(core.NewPipeline(testOptions()), NewSliceSource(testDataset(45, 300, 150, 30)), cfg)
			took := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run with its only executor gone: err = %v, want one containing %q", err, tc.want)
			}
			if tc.attempts > 100 && took < tc.wait {
				t.Fatalf("run failed after %v, before the %v all-down wait ran out", took, tc.wait)
			}
			if took > 5*time.Second {
				t.Fatalf("run took %v to fail, want within 5s", took)
			}
		})
	}
}

// rejectingExecutor answers every hello with an Err, as an executor of
// another protocol version or one that cannot host the model kind does,
// and counts the hellos it reads.
func rejectingExecutor(t *testing.T, hellos *atomic.Int64) string {
	return handExecutor(t, func(enc *gob.Encoder, dec *gob.Decoder) {
		var hello wireMsg
		if dec.Decode(&hello) != nil {
			return
		}
		hellos.Add(1)
		_ = enc.Encode(&batchResponse{Seq: hello.Seq, Err: "engine: this executor rejects every session"})
	})
}

// TestClusterHelloRejection pins the driver's side of a rejected hello: a
// rejection never heals, so the node is abandoned after its one hello and
// never redialed. Alone it fails the run, naming the rejection; beside a
// real executor the run completes on that one.
func TestClusterHelloRejection(t *testing.T) {
	t.Run("alone", func(t *testing.T) {
		var hellos atomic.Int64
		cfg := fastReconnect(ClusterConfig{Executors: []string{rejectingExecutor(t, &hellos)}, BatchSize: 100, TasksPerExecutor: 1})
		_, err := RunCluster(core.NewPipeline(testOptions()), NewSliceSource(testDataset(46, 200, 100, 20)), cfg)
		if err == nil || !strings.Contains(err.Error(), "rejected session") {
			t.Fatalf("run on a rejecting executor: err = %v, want one naming the rejected session", err)
		}
		if n := hellos.Load(); n != 1 {
			t.Fatalf("rejecting executor saw %d hellos, want 1 (a rejection is never redialed)", n)
		}
	})
	t.Run("beside a real executor", func(t *testing.T) {
		var hellos atomic.Int64
		addrs := []string{rejectingExecutor(t, &hellos), startCluster(t, 1, 2)[0]}
		data := testDataset(47, 600, 300, 60)
		stats, err := RunCluster(core.NewPipeline(testOptions()), NewSliceSource(data), fastReconnect(ClusterConfig{
			Executors: addrs, BatchSize: 300, TasksPerExecutor: 2,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Processed != int64(len(data)) {
			t.Fatalf("processed %d, want %d", stats.Processed, len(data))
		}
		if stats.Reconnects != 0 {
			t.Fatalf("reconnects = %d, want 0 (the rejecting node is never redialed)", stats.Reconnects)
		}
		if n := hellos.Load(); n != 1 {
			t.Fatalf("rejecting executor saw %d hellos, want 1", n)
		}
	})
}
