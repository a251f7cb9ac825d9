package engine

import (
	"encoding/gob"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
)

// fastReconnect keeps fault tests snappy: failed executors are abandoned
// after a few quick attempts.
func fastReconnect(cfg ClusterConfig) ClusterConfig {
	cfg.MaxConnAttempts = 3
	cfg.ReconnectBackoff = 10 * time.Millisecond
	cfg.AllDownWait = 2 * time.Second
	return cfg
}

// waitHandled polls until the executor served at least n shares.
func waitHandled(t *testing.T, ex *Executor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ex.Handled() < n {
		if time.Now().After(deadline) {
			t.Fatalf("executor stuck at %d shares, want >= %d", ex.Handled(), n)
		}
		time.Sleep(time.Millisecond)
	}
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
// size 1 every share lands on the first healthy node, so the faulty node
// is the one serving: killed mid-share, it sends every later tweet through
// failover; returning corrupt deltas, it fails each share it serves over
// on decode, reconnects, and is picked again.
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
	// With batch size 1 every share lands on the first healthy node, so
	// crashing it mid-share forces all later tweets through failover.
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
// fresh process on the same address: the driver must reconnect and resync
// the full state, including the adaptively-grown vocabulary the new
// session has never seen.
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

	var exB2 *Executor
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		waitHandled(t, exB, 2)
		exB.Close()
		// Rebind the same address: the driver's reconnect loop finds the
		// replacement and resyncs it from scratch.
		deadline := time.Now().Add(5 * time.Second)
		for {
			var err error
			exB2, err = StartExecutor(addrB, 2)
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("could not rebind %s: %v", addrB, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	data := testDataset(34, 8000, 4000, 800)
	p := core.NewPipeline(testOptions()) // adaptive BoW on: vocabulary grows mid-run
	cfg := fastReconnect(ClusterConfig{
		Executors: []string{exA.Addr(), addrB}, BatchSize: 400, TasksPerExecutor: 2,
	})
	// Give the reconnect loop room for the replacement to bind on slow CI.
	cfg.MaxConnAttempts = 10
	stats, err := RunCluster(p, NewSliceSource(data), cfg)
	<-swapped
	if exB2 != nil {
		defer exB2.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("processed %d, want %d", stats.Processed, len(data))
	}
	if stats.Reconnects == 0 {
		t.Fatal("driver never reconnected to the replacement executor")
	}
	if exB2 == nil || exB2.Handled() == 0 {
		t.Fatal("replacement executor served no shares after resync")
	}
	seedSize := len(core.NewPipeline(testOptions()).Extractor().BoW().Words())
	if got := exB2.LastVocabSize(); got <= seedSize {
		t.Fatalf("replacement executor vocab = %d words, want > %d (resync did not deliver the grown vocabulary)", got, seedSize)
	}
	if got, want := exB2.LastVocabSize(), p.Extractor().BoW().Size(); got > want {
		t.Fatalf("replacement executor vocab = %d words, driver has %d", got, want)
	}
}

// TestClusterDeltaMatchesFull proves the delta-broadcast protocol changes
// only wire cost, never results: the same stream through delta and
// full-re-broadcast clusters yields identical prequential reports, with
// the delta run sending a fraction of the broadcast bytes.
func TestClusterDeltaMatchesFull(t *testing.T) {
	addrs := startCluster(t, 3, 2)
	data := testDataset(35, 4000, 2000, 400)

	run := func(full bool) (Stats, *core.Pipeline) {
		p := core.NewPipeline(testOptions())
		stats, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
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
		t.Errorf("delta broadcasts changed results:\ndelta %+v\nfull  %+v", got, want)
	}
	if !reflect.DeepEqual(deltaP.Evaluator().Matrix(), fullP.Evaluator().Matrix()) {
		t.Error("delta broadcasts changed the confusion matrix")
	}
	if deltaStats.BroadcastBytes >= fullStats.BroadcastBytes {
		t.Errorf("delta broadcast bytes %d not below full %d", deltaStats.BroadcastBytes, fullStats.BroadcastBytes)
	}
}

// TestClusterSteadyStateBroadcastShrinks runs an unlabeled-only stream
// (model and vocabulary never change after the first batch) and checks the
// steady-state broadcast cost per batch collapses versus the full
// re-broadcast protocol.
func TestClusterSteadyStateBroadcastShrinks(t *testing.T) {
	addrs := startCluster(t, 2, 2)
	// Warm the model so its blob has realistic size.
	warm := testDataset(36, 3000, 1500, 300)
	measure := func(full bool) (perBatch int64) {
		p := core.NewPipeline(testOptions())
		if _, err := RunCluster(p, NewSliceSource(warm), ClusterConfig{
			Executors: addrs, BatchSize: 500, TasksPerExecutor: 2, fullBroadcast: full,
		}); err != nil {
			t.Fatal(err)
		}
		// Steady state: unlabeled traffic only.
		src := NewSliceSource(unlabeledTweets(37, 5000))
		stats, err := RunCluster(p, src, ClusterConfig{
			Executors: addrs, BatchSize: 500, TasksPerExecutor: 2, fullBroadcast: full,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.BroadcastBytes / int64(stats.Batches)
	}
	full := measure(true)
	delta := measure(false)
	// The first steady batch still broadcasts the full state to the fresh
	// connections, so the average includes one full payload over 10
	// batches; require a 2x shrink here and leave the steady-state figure
	// to bench/'s engine.cluster_broadcast_bytes_per_batch, which
	// amortizes over more batches.
	if delta*2 > full {
		t.Errorf("steady-state broadcast bytes/batch: delta %d, full %d — expected at least 2x shrink", delta, full)
	}
}

// TestClusterARFPerMemberElision checks the acceptance target of the
// partitioned broadcast: with no drift events and an unchanged forest
// (steady unlabeled traffic), the delta protocol's broadcast cost per
// batch collapses to at most 1/EnsembleSize of the full-forest broadcast —
// the whole point of hashing members individually instead of shipping ten
// trees because one might have changed.
func TestClusterARFPerMemberElision(t *testing.T) {
	const ensemble = 5
	addrs := startCluster(t, 2, 2)
	warm := testDataset(43, 2000, 1000, 200)
	measure := func(full bool) (perBatch int64) {
		opts := testOptions()
		opts.Model = core.ModelARF
		opts.ARF.EnsembleSize = ensemble
		p := core.NewPipeline(opts)
		cfg := ClusterConfig{Executors: addrs, BatchSize: 500, TasksPerExecutor: 2, fullBroadcast: full}
		if _, err := RunCluster(p, NewSliceSource(warm), cfg); err != nil {
			t.Fatal(err)
		}
		// Steady state: unlabeled traffic only, so no member tree changes.
		src := NewSliceSource(unlabeledTweets(44, 10000))
		stats, err := RunCluster(p, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.BroadcastBytes / int64(stats.Batches)
	}
	full := measure(true)
	delta := measure(false)
	if delta*ensemble > full {
		t.Errorf("steady-state ARF broadcast bytes/batch: delta %d, full %d — want <= 1/%d", delta, full, ensemble)
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
	conn, err := net.Dial("tcp", ex.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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

	p := core.NewPipeline(func() core.Options {
		o := testOptions()
		o.Model = core.ModelSLR
		return o
	}())
	modelBlob, err := p.Model().(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	statsBlob, err := p.Normalizer().Stats.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data := testDataset(38, 400, 200, 40)
	bcast := wireMsg{
		Kind: msgBroadcast, Seq: 1,
		ModelHash: stream.Hash64(modelBlob), ModelBlob: modelBlob, StatsBlob: statsBlob,
		VocabBase: 0, VocabVersion: 1, VocabWords: p.Extractor().BoW().Words(),
		Preprocess: true, NormMode: int(p.Normalizer().Mode), Scheme: int(p.Options().Scheme),
	}
	if err := enc.Encode(&bcast); err != nil {
		t.Fatal(err)
	}
	share := wireMsg{Kind: msgData, Seq: 1, Lo: 0, Hi: len(data), Tasks: 2, Tweets: data}
	if err := enc.Encode(&share); err != nil {
		t.Fatal(err)
	}
	// Close once the share is in flight; drain semantics guarantee its
	// response is flushed before the connection goes away.
	waitHandled(t, ex, 1)
	closed := make(chan error, 1)
	go func() { closed <- ex.Close() }()

	var resp batchResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("in-flight share response lost during Close: %v", err)
	}
	if resp.Err != "" || resp.NeedResync {
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

// TestVocabStateDiff unit-tests the driver-side vocabulary log: appends
// produce diffs, removals force an epoch rebuild, and per-node version
// bookkeeping selects between diff and full broadcast.
func TestVocabStateDiff(t *testing.T) {
	var v vocabState
	v.refresh([]string{"b", "a"})
	if v.version != 1 || len(v.log) != 2 {
		t.Fatalf("initial refresh: version=%d log=%v", v.version, v.log)
	}
	if v.log[0] != "a" || v.log[1] != "b" {
		t.Fatalf("log not sorted: %v", v.log)
	}

	// Pure growth: append-only log, epoch unchanged.
	v.refresh([]string{"a", "b", "c"})
	if v.version != 2 || v.epoch != 0 {
		t.Fatalf("append refresh: version=%d epoch=%d", v.version, v.epoch)
	}
	if len(v.log) != 3 || v.log[2] != "c" {
		t.Fatalf("log after append: %v", v.log)
	}

	// No change: version stable.
	v.refresh([]string{"c", "a", "b"})
	if v.version != 2 {
		t.Fatalf("no-op refresh bumped version to %d", v.version)
	}

	// Removal: epoch advances and the log is rebuilt.
	v.refresh([]string{"a", "c", "d"})
	if v.version != 3 || v.epoch != 3 {
		t.Fatalf("removal refresh: version=%d epoch=%d", v.version, v.epoch)
	}
	if len(v.log) != 3 || v.log[0] != "a" || v.log[1] != "c" || v.log[2] != "d" {
		t.Fatalf("rebuilt log: %v", v.log)
	}
}

// TestClusterAllCorruptFailsRun bounds the share's failover: when every
// executor persistently returns corrupt deltas, the run must error out
// instead of cycling markDown/reconnect forever.
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
