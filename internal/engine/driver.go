package engine

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
	"redhanded/internal/norm"
	"redhanded/internal/obs"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
)

// The cluster driver distributes micro-batch shares across executor nodes
// over TCP, mirroring the paper's 3-node SparkCluster deployment:
//
//   - one goroutine per node (runNode) owns its connection: it dials the
//     node and, while connected, takes shares one at a time from the run's
//     queue — each share is sent, then its response is read on the same
//     connection under the share timeout — and reports to the driver
//     goroutine over one channel;
//   - failover: a share is done when its response answers that share and
//     decodes; when its node dies, times out, answers another share or
//     returns a payload that does not decode, the node puts the share back
//     on the queue for whichever connected node is free and redials with
//     backoff, so a batch completes as long as one executor lives;
//   - keyed broadcasts: the model and the BoW vocabulary each ship whole
//     exactly when their key (model hash, vocabulary version) differs from
//     the one the node's session acknowledged — so an unchanged
//     model/vocab costs a few bytes per batch;
//   - one wire order: each share is the node's broadcast for the batch
//     (once per node per batch), then the share's data frame, then its
//     response; batch k+1 starts only after batch k merged, so
//     test-then-train semantics hold. The only overlap is the source read,
//     which runs one batch ahead.

// Cluster hot-path instrumentation on the default metrics registry.
var (
	clusterBroadcastBytes = metrics.Default().Counter(
		"redhanded_cluster_broadcast_bytes_total",
		"Bytes of model/stats/vocab broadcast frames sent to executors.", nil)
	clusterDataBytes = metrics.Default().Counter(
		"redhanded_cluster_data_bytes_total",
		"Bytes of tweet data frames sent to executors.", nil)
	clusterFailovers = metrics.Default().Counter(
		"redhanded_cluster_failovers_total",
		"Batch shares moved to another executor after an exchange on their node failed.", nil)
	clusterReconnects = metrics.Default().Counter(
		"redhanded_cluster_reconnects_total",
		"Successful executor reconnects after a mid-run failure.", nil)
	clusterShareRTT = metrics.Default().Histogram(
		"redhanded_cluster_share_rtt_seconds",
		"Round-trip latency of one batch share (send through response).", nil, nil)
)

// ClusterConfig configures the distributed engine.
type ClusterConfig struct {
	// Executors lists the executor TCP addresses (the paper uses 3 nodes).
	Executors []string
	// BatchSize is the micro-batch length across the whole cluster.
	BatchSize int
	// TasksPerExecutor is the parallel partition count per node (8 cores
	// per node in the paper's testbed).
	TasksPerExecutor int
	// Tracer, when non-nil, records one span per micro-batch: queue covers
	// broadcast serialization and the healthy-node wait; executor_rtt the
	// shares' wall time until every response has been decoded and checked;
	// executor_compute the executor-reported share compute (a subset of the
	// RTT — the difference is wire, queueing and decode cost); and merge the
	// statistics and accumulator merge plus AbsorbBatch.
	Tracer *obs.Tracer

	// fullBroadcast sends every node the complete model and vocabulary each
	// batch — what a fresh session receives — so in-package tests have an
	// always-full reference for the elided broadcasts' byte counts and
	// results.
	fullBroadcast bool
	// timing replaces the failure-handling constants below field by field
	// where non-zero; only in-package tests set it.
	timing clusterTiming
}

// The driver's failure handling. A node whose connection fails is redialed
// after reconnectBackoff, doubling per attempt up to 1s, and abandoned
// after maxConnAttempts consecutive failed redials. When every node is
// down, the driver waits allDownWait for one to come back before failing
// the run. shareTimeout bounds the wait for a share's response and every
// write: a wedged-but-connected executor (stopped process, half-open
// connection) never produces a transport error, so the timeout is what
// converts it into a failover. It is generous: a share normally completes
// in milliseconds.
const (
	maxConnAttempts  = 5
	reconnectBackoff = 50 * time.Millisecond
	allDownWait      = 5 * time.Second
	shareTimeout     = 2 * time.Minute
)

type clusterTiming struct {
	maxConnAttempts  int
	reconnectBackoff time.Duration
	allDownWait      time.Duration
	shareTimeout     time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 6000
	}
	if c.TasksPerExecutor <= 0 {
		c.TasksPerExecutor = 8
	}
	t := &c.timing
	t.maxConnAttempts = cmp.Or(t.maxConnAttempts, maxConnAttempts)
	t.reconnectBackoff = cmp.Or(t.reconnectBackoff, reconnectBackoff)
	t.allDownWait = cmp.Or(t.allDownWait, allDownWait)
	t.shareTimeout = cmp.Or(t.shareTimeout, shareTimeout)
	return c
}

// execNode is one executor as its goroutine sees it: the connection, the
// broadcast keys the node's session holds — reset on every (re)connect, so
// a fresh session receives the full state — and the node's counts, summed
// into Stats once the goroutine has returned. Only runNode touches it.
type execNode struct {
	addr string
	conn *countingConn
	enc  *gob.Encoder
	dec  *gob.Decoder

	modelHash    uint64
	vocabVersion uint64
	bcSeq        int64

	broadcastBytes, dataBytes, failovers, reconnects int64
}

// nodeState is a node as the driver goroutine last heard of it.
type nodeState uint8

const (
	nodeDialing nodeState = iota // on its first dial
	nodeUp                       // connected, taking shares
	nodeDown                     // its connection failed; being redialed
	nodeGone                     // abandoned for the rest of the run
)

// nodeEvent is what a node's goroutine reports to the driver goroutine: its
// state, the error that took it down or abandoned it, and a share it is
// done with.
type nodeEvent struct {
	node  int
	state nodeState
	err   error
	share *share
}

// share is one span of a batch, passed from the queue to the node running
// it and back to the driver when done. err is its last exchange's error —
// nil once a response decoded — and hops counts its failed exchanges.
type share struct {
	span
	bc    *broadcast
	batch []twitterdata.Tweet
	hops  int
	out   shareOutput
	nanos int64 // executor-reported compute time
	err   error
}

// sessionRejected is a hello rejection: a version or model-kind mismatch
// never heals by redialing, so it abandons the node at once.
type sessionRejected struct{ addr, reason string }

func (e *sessionRejected) Error() string {
	return fmt.Sprintf("engine: executor %s rejected session: %s", e.addr, e.reason)
}

// broadcast is one batch's shared broadcast payload, computed once; each
// node's frame carries the model blob and the vocabulary words only when
// the node's session holds a different key (broadcastFor).
type broadcast struct {
	seq        int64
	modelBlob  []byte
	modelHash  uint64
	statsBlob  []byte
	vocabVer   uint64
	vocabWords []string
	preprocess bool
	normMode   int
	scheme     int
}

// clusterRun is the state of one RunCluster invocation.
type clusterRun struct {
	p     *core.Pipeline
	kind  string
	cfg   ClusterConfig
	nodes []*execNode
	// queue holds the shares waiting for a connected node. It has a slot
	// per node and a batch never has more shares than nodes, so a put
	// never blocks.
	queue  chan *share
	events chan nodeEvent
	stop   chan struct{}
	loops  sync.WaitGroup // the node goroutines

	// The rest belongs to the driver goroutine: each node's last reported
	// state and the number of nodes in each state, the last error a node
	// reported, the all-down deadline of the current wait (nil while a node
	// is up), and the previous batch's broadcast, whose vocabulary words
	// are reused while the BoW's version holds.
	state   []nodeState
	count   [nodeGone + 1]int
	lastErr error
	allDown <-chan time.Time
	last    *broadcast
}

// RunCluster executes the pipeline across the executor nodes: each batch is
// split into one share per healthy node, every share is computed remotely
// by computeShare against the broadcast state, and the decoded results go
// through the same mergeBatch as the local engine. The run survives
// executor failures as long as at least one node stays reachable; each
// failed share is reassigned to a survivor and produces results identical
// to the ones the dead node would have returned.
func RunCluster(p *core.Pipeline, src Source, cfg ClusterConfig) (Stats, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Executors) == 0 {
		return Stats{}, fmt.Errorf("engine: cluster needs at least one executor")
	}
	kind, err := stream.ModelKindOf(p.Model())
	if err != nil {
		return Stats{}, err
	}

	r := &clusterRun{p: p, kind: kind, cfg: cfg,
		queue:  make(chan *share, len(cfg.Executors)),
		events: make(chan nodeEvent),
		stop:   make(chan struct{}),
		state:  make([]nodeState, len(cfg.Executors)),
	}
	r.count[nodeDialing] = len(cfg.Executors)
	for _, addr := range cfg.Executors {
		r.nodes = append(r.nodes, &execNode{addr: addr})
	}
	r.loops.Add(len(r.nodes))
	for i := range r.nodes {
		go r.runNode(i)
	}
	stats, err := r.run(src)
	close(r.stop)
	r.loops.Wait()
	for _, n := range r.nodes {
		stats.BroadcastBytes += n.broadcastBytes
		stats.DataBytes += n.dataBytes
		stats.Failovers += n.failovers
		stats.Reconnects += n.reconnects
	}
	return stats, err
}

// run waits for every node's first dial — the nodes up then set the first
// batch's share count, so it is the same on every run — and fails fast
// when none connected. Then it runs the batches until the source ends or
// a batch fails.
func (r *clusterRun) run(src Source) (Stats, error) {
	for r.count[nodeDialing] > 0 {
		r.apply(<-r.events)
	}
	if r.count[nodeUp] == 0 {
		return Stats{}, fmt.Errorf("engine: no executor reachable: %w", r.lastErr)
	}

	m := startRun(r.p)
	// Prefetch: the source is read one batch ahead of the batch in flight.
	batches := make(chan []twitterdata.Tweet, 1)
	go func() {
		defer close(batches)
		for {
			b := nextBatch(src, nil, r.cfg.BatchSize)
			if len(b) == 0 {
				return
			}
			select {
			case batches <- b:
			case <-r.stop:
				return
			}
			if len(b) < r.cfg.BatchSize {
				return
			}
		}
	}()

	var err error
	var seq int64
	for batch := range batches {
		seq++
		batchStart := time.Now()
		if err = r.runBatch(seq, batch); err != nil {
			break
		}
		m.batch(len(batch), batchStart)
	}
	return m.finish(), err
}

// runBatch executes one micro-batch: broadcast, queue one share per node
// up, wait until every share is done, then merge the shares in share
// order. Decoding reads the global model and nothing mutates it before the
// merge, which waits for every share — so a batch is applied whole or not
// at all.
func (r *clusterRun) runBatch(seq int64, batch []twitterdata.Tweet) error {
	// The batch span: queue covers broadcast serialization plus the
	// healthy-node wait (everything before dispatch), then executor_rtt,
	// executor_compute (executor-reported), and merge. Finish is deferred so
	// a failed batch still records its partial breakdown.
	sp := r.cfg.Tracer.Begin(0)
	defer sp.Finish()
	if sp != nil {
		sp.SetID("batch-" + strconv.FormatInt(seq, 10))
	}
	bc, err := r.makeBroadcast(seq)
	if err != nil {
		return err
	}
	// Take in what the nodes reported since the last batch, then wait for
	// one to be up.
	for drained := false; !drained; {
		select {
		case ev := <-r.events:
			r.apply(ev)
		default:
			drained = true
		}
	}
	r.allDown = nil
	for r.count[nodeUp] == 0 {
		if _, err := r.await(); err != nil {
			return err
		}
	}
	spans := splitSpans(len(batch), r.count[nodeUp])
	sp.BeginStage(obs.StageExecutorRTT)

	shares := make([]share, len(spans))
	for i, s := range spans {
		shares[i] = share{span: s, bc: bc, batch: batch}
		r.queue <- &shares[i]
	}
	for done := 0; done < len(shares); {
		ev, err := r.await()
		if err != nil {
			return err
		}
		if ev.share != nil {
			done++
		}
	}
	sp.BeginStage(obs.StageMerge)
	outs := make([]shareOutput, len(shares))
	// The serving nodes' compute time, summed across shares. An executor
	// that reports 0 leaves the stage absent from the breakdown.
	var nanos int64
	for i, sh := range shares {
		if sh.err != nil {
			return sh.err
		}
		outs[i] = sh.out
		nanos += sh.nanos
	}
	sp.Add(obs.StageExecutorCompute, time.Duration(nanos))
	mergeBatch(r.p, batch, outs)
	return nil
}

// apply records a node event in the driver's view of the nodes.
func (r *clusterRun) apply(ev nodeEvent) {
	r.count[r.state[ev.node]]--
	r.count[ev.state]++
	r.state[ev.node] = ev.state
	if ev.err != nil {
		r.lastErr = ev.err
	}
}

// await receives the next node event and applies it. While no node is up
// the wait is bounded: it fails at once when every node is abandoned, and
// when none has come up within allDownWait of the batch's first wait that
// found them all down.
func (r *clusterRun) await() (nodeEvent, error) {
	switch {
	case r.count[nodeUp] > 0:
		r.allDown = nil
	case r.count[nodeGone] == len(r.nodes):
		return nodeEvent{}, fmt.Errorf("engine: every executor is gone (abandoned after %d attempts each): %w", r.cfg.timing.maxConnAttempts, r.lastErr)
	case r.allDown == nil:
		r.allDown = time.After(r.cfg.timing.allDownWait)
	}
	select {
	case ev := <-r.events:
		r.apply(ev)
		return ev, nil
	case <-r.allDown:
		return nodeEvent{}, fmt.Errorf("engine: every executor is down and none reconnected within %v: %w", r.cfg.timing.allDownWait, r.lastErr)
	}
}

// makeBroadcast serializes the batch's global state once: the model under
// its content hash, the statistics, and the vocabulary under the BoW's
// snapshot version, which moves only when the word set does.
func (r *clusterRun) makeBroadcast(seq int64) (*broadcast, error) {
	bow := r.p.Extractor().BoW()
	bc := &broadcast{
		seq:        seq,
		vocabVer:   bow.SnapshotVersion(),
		preprocess: r.p.Options().Preprocess,
		normMode:   int(r.p.Normalizer().Mode),
		scheme:     int(r.p.Options().Scheme),
	}
	modelBlob, err := r.p.Model().MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("engine: broadcast model: %w", err)
	}
	bc.modelBlob, bc.modelHash = modelBlob, stream.Hash64(modelBlob)
	if r.last != nil && r.last.vocabVer == bc.vocabVer {
		bc.vocabWords = r.last.vocabWords
	} else {
		bc.vocabWords = bow.Words()
	}
	statsBlob, err := r.p.Normalizer().Stats.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("engine: broadcast stats: %w", err)
	}
	bc.statsBlob = statsBlob
	r.last = bc
	return bc, nil
}

// runNode is node i's one goroutine for the whole run. It dials the node
// and serves shares while connected. When the connection fails it redials
// (redial), and it abandons the node when the redials run out or on a
// hello rejection, at the first dial too. It reports every change of state
// to the driver goroutine and returns once the run has ended.
func (r *clusterRun) runNode(i int) {
	defer r.loops.Done()
	n := r.nodes[i]
	err := r.connect(n)
	for {
		if err == nil {
			if err = r.serve(i); err == nil {
				return // the run ended
			}
		}
		if errors.As(err, new(*sessionRejected)) {
			r.report(nodeEvent{node: i, state: nodeGone, err: err})
			return
		}
		if !r.report(nodeEvent{node: i, state: nodeDown, err: err}) {
			return
		}
		if err = r.redial(n); err != nil {
			r.report(nodeEvent{node: i, state: nodeGone, err: err})
			return
		}
		n.reconnects++
		clusterReconnects.Inc()
	}
}

// serve runs shares on node i while it is connected: it reports the node
// up, then takes shares from the queue one at a time and reports each when
// its response has decoded. A failed exchange closes the connection, puts
// its share back on the queue — or, past the hop bound (4·nodes+4 failed
// exchanges), fails it — and is returned. When the run ends, serve sends
// the shutdown frame and returns nil.
func (r *clusterRun) serve(i int) error {
	n := r.nodes[i]
	for ev := (nodeEvent{node: i, state: nodeUp}); r.report(ev); {
		var sh *share
		select {
		case sh = <-r.queue:
		case <-r.stop:
			n.bye()
			return nil
		}
		if sh.err != nil {
			n.failovers++
			clusterFailovers.Inc()
		}
		if sh.err = r.exchange(n, sh); sh.err != nil {
			err := sh.err
			n.conn.Close()
			if sh.hops++; sh.hops <= 4*len(r.nodes)+4 {
				r.queue <- sh
			} else {
				sh.err = fmt.Errorf("engine: share [%d,%d) of batch %d failed on every executor: %w", sh.lo, sh.hi, sh.bc.seq, err)
				r.report(nodeEvent{node: i, state: nodeUp, share: sh})
			}
			return err
		}
		ev.share = sh
	}
	n.bye()
	return nil
}

// exchange runs one share round trip on n and decodes the response into
// sh: the broadcast when n's session does not hold this batch's yet (once
// per node per batch), then the share's data frame, each counted by its
// bytes, then the response, read inline under the share timeout.
func (r *clusterRun) exchange(n *execNode, sh *share) error {
	start, bc, timeout := time.Now(), sh.bc, r.cfg.timing.shareTimeout
	if n.bcSeq != bc.seq {
		msg := r.broadcastFor(n, bc)
		sent, err := n.send(&msg, timeout)
		if err != nil {
			return fmt.Errorf("engine: broadcast to executor %s: %w", n.addr, err)
		}
		n.broadcastBytes += sent
		clusterBroadcastBytes.Add(sent)
		n.bcSeq, n.modelHash, n.vocabVersion = bc.seq, bc.modelHash, bc.vocabVer
	}
	sent, err := n.send(&wireMsg{Kind: msgData, Seq: bc.seq, Lo: sh.lo, Hi: sh.hi,
		Tasks: r.cfg.TasksPerExecutor, Tweets: sh.batch[sh.lo:sh.hi]}, timeout)
	if err != nil {
		return fmt.Errorf("engine: send share to executor %s: %w", n.addr, err)
	}
	n.dataBytes += sent
	clusterDataBytes.Add(sent)
	_ = n.conn.SetReadDeadline(time.Now().Add(timeout))
	var resp batchResponse
	if err := n.dec.Decode(&resp); err != nil {
		return fmt.Errorf("engine: receive share [%d,%d) from executor %s: %w", sh.lo, sh.hi, n.addr, err)
	}
	clusterShareRTT.Observe(time.Since(start).Seconds())
	return r.decodeShare(n, sh, &resp)
}

// decodeShare checks that a response answers share sh and decodes its
// statistics delta and training accumulators into sh. Decoding only reads
// the global model.
func (r *clusterRun) decodeShare(n *execNode, sh *share, resp *batchResponse) error {
	if resp.Seq != sh.bc.seq || resp.Lo != sh.lo || resp.Hi != sh.hi {
		return fmt.Errorf("engine: executor %s answered share [%d,%d) of batch %d with [%d,%d) of batch %d",
			n.addr, sh.lo, sh.hi, sh.bc.seq, resp.Lo, resp.Hi, resp.Seq)
	}
	if resp.Err != "" {
		return fmt.Errorf("engine: executor %s: %s", n.addr, resp.Err)
	}
	out := shareOutput{lo: sh.lo, classified: resp.Classified, stats: norm.NewFeatureStats(r.p.Normalizer().Stats.Dim())}
	if err := out.stats.UnmarshalBinary(resp.StatsBlob); err != nil {
		return fmt.Errorf("engine: executor %s returned corrupt statistics: %w", n.addr, err)
	}
	for _, blob := range resp.DeltaBlobs {
		acc, err := r.p.Model().AccumulatorFromState(blob)
		if err == nil && (acc.Count() < 0 || acc.Count() > int64(sh.hi-sh.lo)) {
			err = fmt.Errorf("delta counts %d instances in a %d-tweet share", acc.Count(), sh.hi-sh.lo)
		}
		if err != nil {
			return fmt.Errorf("engine: executor %s returned corrupt delta: %w", n.addr, err)
		}
		out.accs = append(out.accs, acc)
	}
	sh.out, sh.nanos = out, resp.ExecNanos
	return nil
}

// broadcastFor builds n's broadcast frame: the model blob and the
// vocabulary words ride along only when the key n's session holds differs
// from the batch's.
func (r *clusterRun) broadcastFor(n *execNode, bc *broadcast) wireMsg {
	msg := wireMsg{
		Kind:         msgBroadcast,
		Seq:          bc.seq,
		ModelHash:    bc.modelHash,
		StatsBlob:    bc.statsBlob,
		VocabVersion: bc.vocabVer,
		Preprocess:   bc.preprocess,
		NormMode:     bc.normMode,
		Scheme:       bc.scheme,
	}
	if r.cfg.fullBroadcast || n.modelHash != bc.modelHash {
		msg.ModelBlob = bc.modelBlob
	}
	if r.cfg.fullBroadcast || n.vocabVersion != bc.vocabVer {
		msg.VocabWords = bc.vocabWords
	}
	return msg
}

// send writes one frame with a write deadline timeout away and returns its
// size on the wire. Without the deadline a peer that stopped reading would
// block the node's goroutine for good; with it, the write fails and the
// share fails over.
func (n *execNode) send(msg *wireMsg, timeout time.Duration) (int64, error) {
	pre := n.conn.out
	_ = n.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := n.enc.Encode(msg)
	return n.conn.out - pre, err
}

// connect dials a node and runs the hello handshake. The node's broadcast
// keys are reset so its next share sends the full state.
func (r *clusterRun) connect(n *execNode) error {
	raw, err := net.DialTimeout("tcp", n.addr, 3*time.Second)
	if err != nil {
		return fmt.Errorf("engine: dial executor %s: %w", n.addr, err)
	}
	conn := &countingConn{Conn: raw}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	var ack batchResponse
	if err = enc.Encode(&wireMsg{Kind: msgHello, Seq: -1, Proto: clusterProtoVersion, ModelKind: r.kind}); err != nil {
		err = fmt.Errorf("engine: hello to executor %s: %w", n.addr, err)
	} else if err = dec.Decode(&ack); err != nil {
		err = fmt.Errorf("engine: hello ack from executor %s: %w", n.addr, err)
	} else if ack.Err != "" {
		err = &sessionRejected{addr: n.addr, reason: ack.Err}
	}
	if err != nil {
		conn.Close()
		return err
	}
	_ = raw.SetDeadline(time.Time{})
	n.conn, n.enc, n.dec = conn, enc, dec
	n.modelHash, n.vocabVersion, n.bcSeq = 0, 0, -1
	return nil
}

// redial reconnects n after its connection failed. Each attempt waits the
// backoff first — reconnectBackoff, doubled after every attempt while under
// a second — and redial gives up after maxConnAttempts failed attempts, at
// once on a hello rejection, and when the run ends.
func (r *clusterRun) redial(n *execNode) error {
	backoff := r.cfg.timing.reconnectBackoff
	for attempt := 1; ; attempt++ {
		select {
		case <-r.stop:
			return fmt.Errorf("engine: run ended while redialing executor %s", n.addr)
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
		err := r.connect(n)
		if err == nil || attempt == r.cfg.timing.maxConnAttempts || errors.As(err, new(*sessionRejected)) {
			return err
		}
	}
}

// report hands ev to the driver goroutine. It returns false, without
// blocking, once the run has ended.
func (r *clusterRun) report(ev nodeEvent) bool {
	select {
	case r.events <- ev:
		return true
	case <-r.stop:
		return false
	}
}

// bye ends n's session with the shutdown frame and closes the connection.
// The frame is a courtesy: a peer that stopped reading gets a second.
func (n *execNode) bye() {
	_ = n.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = n.enc.Encode(&wireMsg{Kind: msgShutdown})
	n.conn.Close()
}
