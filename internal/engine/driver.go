package engine

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
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
//   - request/response: a node carries one share exchange at a time — the
//     share is sent, then its response is read on the same connection
//     under the share timeout;
//   - failover: a share is done when its response answers that share and
//     decodes; when its node dies, times out, answers another share or
//     returns a payload that does not decode, processShare — the one place
//     a share is retried — moves it to a survivor, so a batch completes as
//     long as one executor lives. One supervisor goroutine per node redials
//     it with backoff;
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

// The driver's failure handling. A node is abandoned after
// maxConnAttempts consecutive failed (re)connects; its supervisor redials
// it after reconnectBackoff, doubling per attempt up to 1s. When every node
// is down, a batch start or a failing-over share waits allDownWait for one
// to come back before failing the run. shareTimeout bounds the wait for a
// share's response and every write: a wedged-but-connected executor
// (stopped process, half-open connection) never produces a transport
// error, so the timeout is what converts it into a failover. It is
// generous: a share normally completes in milliseconds.
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

// execNode is the driver's view of one executor: connection, health, and
// the broadcast keys the node's session holds. The keys are reset on every
// (re)connect, so a fresh session receives the full state.
type execNode struct {
	addr string

	// xmu is held for a whole share exchange, send through response decode,
	// so the connection carries one share at a time.
	xmu sync.Mutex
	// down wakes the node's supervisor (one slot: a wake-up is never lost
	// and never doubled).
	down chan struct{}

	// mu guards health and the broadcast keys; it is never held across a
	// response read, so isUp does not wait on a busy node's round trip.
	mu        sync.Mutex
	conn      *countingConn
	enc       *gob.Encoder
	dec       *gob.Decoder
	up        bool
	abandoned bool

	// Broadcast keys held by the node's current session.
	modelHash    uint64
	vocabVersion uint64
	bcSeq        int64
}

func (n *execNode) isUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
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
	stop  chan struct{}
	loops sync.WaitGroup // the nodes' supervisors; shutdown waits for them

	// last is the previous batch's broadcast, whose vocabulary words are
	// reused while the BoW's version holds.
	last *broadcast

	broadcastBytes atomic.Int64
	dataBytes      atomic.Int64
	failovers      atomic.Int64
	reconnects     atomic.Int64
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

	r := &clusterRun{p: p, kind: kind, cfg: cfg, stop: make(chan struct{})}
	for _, addr := range cfg.Executors {
		n := &execNode{addr: addr, bcSeq: -1, down: make(chan struct{}, 1)}
		r.nodes = append(r.nodes, n)
		r.loops.Add(1)
		go r.supervise(n)
	}
	defer r.shutdown()

	// Initial connect, in parallel. A node that fails its first dial is
	// handed to its supervisor; the run starts as long as any node
	// answered, and fails fast when none did.
	var connWG sync.WaitGroup
	errs := make([]error, len(r.nodes))
	for i, n := range r.nodes {
		connWG.Add(1)
		go func(i int, n *execNode) {
			defer connWG.Done()
			if errs[i] = r.connect(n); errs[i] != nil && !n.abandonedNow() {
				n.wake()
			}
		}(i, n)
	}
	connWG.Wait()
	if len(r.upNodes(nil)) == 0 {
		for _, err := range errs {
			if err != nil {
				return Stats{}, fmt.Errorf("engine: no executor reachable: %w", err)
			}
		}
	}

	m := startRun(p)
	// Prefetch: the source is read one batch ahead of the batch in flight.
	batches := make(chan []twitterdata.Tweet, 1)
	go func() {
		defer close(batches)
		for {
			b := nextBatch(src, nil, cfg.BatchSize)
			if len(b) == 0 {
				return
			}
			select {
			case batches <- b:
			case <-r.stop:
				return
			}
			if len(b) < cfg.BatchSize {
				return
			}
		}
	}()

	var seq int64
	for batch := range batches {
		seq++
		batchStart := time.Now()
		if err = r.runBatch(seq, batch); err != nil {
			break
		}
		m.batch(len(batch), batchStart)
	}
	stats := m.finish()
	stats.BroadcastBytes = r.broadcastBytes.Load()
	stats.DataBytes = r.dataBytes.Load()
	stats.Failovers = r.failovers.Load()
	stats.Reconnects = r.reconnects.Load()
	return stats, err
}

// runBatch executes one micro-batch: broadcast, run one share per healthy
// node to a decoded output (processShare fails each over on its own), then
// merge the shares in share order. Decoding reads the global model and
// nothing mutates it before the merge, which waits for every share — so a
// batch is applied whole or not at all.
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
	healthy, err := r.awaitHealthy(nil)
	if err != nil {
		return err
	}
	shares := splitSpans(len(batch), len(healthy))
	sp.BeginStage(obs.StageExecutorRTT)

	outs := make([]shareOutput, len(shares))
	execNanos := make([]int64, len(shares))
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	for i, s := range shares {
		wg.Add(1)
		go func(i int, s span, pref *execNode) {
			defer wg.Done()
			outs[i], execNanos[i], errs[i] = r.processShare(bc, s, batch, pref)
		}(i, s, healthy[i])
	}
	wg.Wait()
	sp.BeginStage(obs.StageMerge)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The serving nodes' compute time, summed across shares. An executor
	// that reports 0 leaves the stage absent from the breakdown.
	var nanos int64
	for _, n := range execNanos {
		nanos += n
	}
	sp.Add(obs.StageExecutorCompute, time.Duration(nanos))
	mergeBatch(r.p, batch, outs)
	return nil
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

// broadcastFor builds n's broadcast frame: the model blob and the
// vocabulary words ride along only when the key n's session holds differs
// from the batch's. Callers hold n.mu.
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

// processShare runs one share until its response decodes and returns the
// decoded output with the executor-reported compute time. Whatever ends an
// exchange without one — a dead or wedged node, a response to another
// share, an error or corrupt payload in the response — has already marked
// the node down, and the share moves to another node. It fails only when
// no executor can serve the share.
func (r *clusterRun) processShare(bc *broadcast, s span, batch []twitterdata.Tweet, node *execNode) (shareOutput, int64, error) {
	tried := make(map[*execNode]bool)
	var lastErr error
	for hops := 0; hops <= 4*len(r.nodes)+4; hops++ {
		if tried[node] || !node.isUp() {
			up, err := r.awaitHealthy(tried)
			if err != nil {
				return shareOutput{}, 0, fmt.Errorf("engine: share [%d,%d) of batch %d unservable: %w", s.lo, s.hi, bc.seq, errors.Join(lastErr, err))
			}
			node = up[0]
			if lastErr != nil {
				r.failovers.Add(1)
				clusterFailovers.Inc()
			}
		}
		out, nanos, err := r.exchange(node, bc, s, batch)
		if err == nil {
			return out, nanos, nil
		}
		lastErr = err
		tried[node] = true
	}
	return shareOutput{}, 0, fmt.Errorf("engine: share [%d,%d) of batch %d failed on every executor: %w", s.lo, s.hi, bc.seq, lastErr)
}

// exchange performs one share round trip against one node — the share is
// sent, then its response is read inline under the share timeout — and
// decodes the response. xmu keeps one exchange on the connection at a time.
// Any failure marks the node down before it is returned.
func (r *clusterRun) exchange(n *execNode, bc *broadcast, s span, batch []twitterdata.Tweet) (shareOutput, int64, error) {
	n.xmu.Lock()
	defer n.xmu.Unlock()
	start := time.Now()
	conn, dec, err := r.sendShare(n, bc, s, batch)
	var resp batchResponse
	if err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.timing.shareTimeout))
		if err = dec.Decode(&resp); err != nil {
			err = fmt.Errorf("engine: receive share [%d,%d) from executor %s: %w", s.lo, s.hi, n.addr, err)
		}
	}
	var out shareOutput
	if err == nil {
		clusterShareRTT.Observe(time.Since(start).Seconds())
		out, err = r.decodeShare(n, bc.seq, s, &resp)
	}
	if err != nil {
		n.markDown(conn)
		return shareOutput{}, 0, err
	}
	return out, resp.ExecNanos, nil
}

// decodeShare checks that a response answers share s of batch seq and
// decodes its statistics delta and training accumulators. Decoding only
// reads the global model.
func (r *clusterRun) decodeShare(n *execNode, seq int64, s span, resp *batchResponse) (shareOutput, error) {
	if resp.Seq != seq || resp.Lo != s.lo || resp.Hi != s.hi {
		return shareOutput{}, fmt.Errorf("engine: executor %s answered share [%d,%d) of batch %d with [%d,%d) of batch %d",
			n.addr, s.lo, s.hi, seq, resp.Lo, resp.Hi, resp.Seq)
	}
	if resp.Err != "" {
		return shareOutput{}, fmt.Errorf("engine: executor %s: %s", n.addr, resp.Err)
	}
	out := shareOutput{lo: s.lo, classified: resp.Classified, stats: norm.NewFeatureStats(r.p.Normalizer().Stats.Dim())}
	if err := out.stats.UnmarshalBinary(resp.StatsBlob); err != nil {
		return shareOutput{}, fmt.Errorf("engine: executor %s returned corrupt statistics: %w", n.addr, err)
	}
	for _, blob := range resp.DeltaBlobs {
		acc, err := r.p.Model().AccumulatorFromState(blob)
		if err == nil && (acc.Count() < 0 || acc.Count() > int64(s.hi-s.lo)) {
			err = fmt.Errorf("delta counts %d instances in a %d-tweet share", acc.Count(), s.hi-s.lo)
		}
		if err != nil {
			return shareOutput{}, fmt.Errorf("engine: executor %s returned corrupt delta: %w", n.addr, err)
		}
		out.accs = append(out.accs, acc)
	}
	return out, nil
}

// sendShare ships the broadcast when n's session does not hold this
// batch's yet (once per node per batch), then the share's data frame, and
// counts each frame's bytes. It returns the connection the frames went out
// on (nil when n is down) and its decoder, for the response.
func (r *clusterRun) sendShare(n *execNode, bc *broadcast, s span, batch []twitterdata.Tweet) (*countingConn, *gob.Decoder, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up {
		return nil, nil, fmt.Errorf("engine: executor %s is down", n.addr)
	}
	if n.bcSeq != bc.seq {
		msg := r.broadcastFor(n, bc)
		sent, err := n.send(&msg, r.cfg.timing.shareTimeout)
		if err != nil {
			return n.conn, nil, fmt.Errorf("engine: broadcast to executor %s: %w", n.addr, err)
		}
		r.broadcastBytes.Add(sent)
		clusterBroadcastBytes.Add(sent)
		n.bcSeq, n.modelHash, n.vocabVersion = bc.seq, bc.modelHash, bc.vocabVer
	}
	sent, err := n.send(&wireMsg{Kind: msgData, Seq: bc.seq, Lo: s.lo, Hi: s.hi,
		Tasks: r.cfg.TasksPerExecutor, Tweets: batch[s.lo:s.hi]}, r.cfg.timing.shareTimeout)
	if err != nil {
		return n.conn, nil, fmt.Errorf("engine: send share to executor %s: %w", n.addr, err)
	}
	r.dataBytes.Add(sent)
	clusterDataBytes.Add(sent)
	return n.conn, n.dec, nil
}

// send writes one frame with a write deadline timeout away and returns its
// size on the wire. Sends happen under the node mutex, which isUp and
// shutdown also need — so an unbounded write to a peer that stopped reading
// would wedge the node forever. The deadline converts it into a send error
// the caller turns into a failover. Callers hold n.mu.
func (n *execNode) send(msg *wireMsg, timeout time.Duration) (int64, error) {
	pre := n.conn.out.Load()
	_ = n.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := n.enc.Encode(msg)
	_ = n.conn.SetWriteDeadline(time.Time{})
	return n.conn.out.Load() - pre, err
}

// connect dials a node and runs the hello handshake. The node's broadcast
// keys are reset so the next batch sends the full state.
func (r *clusterRun) connect(n *execNode) error {
	raw, err := net.DialTimeout("tcp", n.addr, 3*time.Second)
	if err != nil {
		return fmt.Errorf("engine: dial executor %s: %w", n.addr, err)
	}
	conn := &countingConn{Conn: raw}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	hello := wireMsg{Kind: msgHello, Seq: -1, Proto: clusterProtoVersion, ModelKind: r.kind}
	if err := enc.Encode(&hello); err != nil {
		conn.Close()
		return fmt.Errorf("engine: hello to executor %s: %w", n.addr, err)
	}
	var ack batchResponse
	if err := dec.Decode(&ack); err != nil {
		conn.Close()
		return fmt.Errorf("engine: hello ack from executor %s: %w", n.addr, err)
	}
	if ack.Err != "" {
		conn.Close()
		n.mu.Lock()
		n.abandoned = true // version/kind mismatch never heals by retrying
		n.mu.Unlock()
		return fmt.Errorf("engine: executor %s rejected session: %s", n.addr, ack.Err)
	}
	_ = raw.SetDeadline(time.Time{})

	n.mu.Lock()
	// A reconnect that completes as the run ends must not install a
	// connection shutdown() has already passed over; shutdown closes stop
	// before touching any node, so checking it under the node lock makes
	// the two mutually exclusive.
	select {
	case <-r.stop:
		n.mu.Unlock()
		conn.Close()
		return fmt.Errorf("engine: run ended during reconnect to %s", n.addr)
	default:
	}
	n.conn, n.enc, n.dec = conn, enc, dec
	n.up = true
	n.modelHash, n.vocabVersion, n.bcSeq = 0, 0, -1
	n.mu.Unlock()
	return nil
}

// markDown takes n out of service once per connection: the first failed
// exchange on conn closes it and wakes the node's supervisor; a call for a
// connection that is already down or replaced does nothing.
func (n *execNode) markDown(conn *countingConn) {
	n.mu.Lock()
	if !n.up || n.conn != conn {
		n.mu.Unlock()
		return
	}
	n.up = false
	n.mu.Unlock()
	conn.Close()
	n.wake()
}

// wake signals n's supervisor that the node is down.
func (n *execNode) wake() {
	select {
	case n.down <- struct{}{}:
	default:
	}
}

// supervise is n's one reconnect loop, running until the run ends: each
// wake-up redials the node with exponential backoff, and maxConnAttempts
// consecutive failures or a hello rejection abandon it for the run.
func (r *clusterRun) supervise(n *execNode) {
	defer r.loops.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-n.down:
		}
		backoff := r.cfg.timing.reconnectBackoff
		for attempt := 1; ; attempt++ {
			select {
			case <-r.stop:
				return
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
			if r.connect(n) == nil {
				r.reconnects.Add(1)
				clusterReconnects.Inc()
				break
			}
			// A hello rejection (connect sets abandoned) never heals.
			if attempt == r.cfg.timing.maxConnAttempts || n.abandonedNow() {
				n.mu.Lock()
				n.abandoned = true
				n.mu.Unlock()
				return
			}
		}
	}
}

func (n *execNode) abandonedNow() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.abandoned
}

// upNodes returns the nodes that are up and not in skip, in node order.
func (r *clusterRun) upNodes(skip map[*execNode]bool) []*execNode {
	var up []*execNode
	for _, n := range r.nodes {
		if !skip[n] && n.isUp() {
			up = append(up, n)
		}
	}
	return up
}

func (r *clusterRun) allAbandoned() bool {
	for _, n := range r.nodes {
		if !n.abandonedNow() {
			return false
		}
	}
	return true
}

// awaitHealthy is the one wait for a node: a batch start calls it with no
// skip set, a failing-over share with the nodes it has tried. It returns
// upNodes(skip), polling every 15 ms while that is empty — clearing skip
// each time, so a tried node that has reconnected is eligible again — and
// fails once every node is abandoned or none came up within allDownWait.
func (r *clusterRun) awaitHealthy(skip map[*execNode]bool) ([]*execNode, error) {
	deadline := time.Now().Add(r.cfg.timing.allDownWait)
	for {
		if up := r.upNodes(skip); len(up) > 0 {
			return up, nil
		}
		if r.allAbandoned() {
			return nil, fmt.Errorf("engine: every executor is gone (abandoned after %d attempts each)", r.cfg.timing.maxConnAttempts)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("engine: every executor is down and none reconnected within %v", r.cfg.timing.allDownWait)
		}
		clear(skip)
		time.Sleep(15 * time.Millisecond)
	}
}

// shutdown ends the run: reconnect loops stop, up nodes get the polite
// shutdown frame, every connection is closed, and the supervisors have
// returned.
func (r *clusterRun) shutdown() {
	close(r.stop)
	bye := wireMsg{Kind: msgShutdown}
	for _, n := range r.nodes {
		n.mu.Lock()
		if n.conn != nil {
			if n.up {
				// Best-effort politeness; a peer that stopped reading must
				// not block the run from ending.
				_ = n.conn.SetWriteDeadline(time.Now().Add(time.Second))
				_ = n.enc.Encode(&bye)
			}
			n.conn.Close()
		}
		n.up = false
		n.mu.Unlock()
	}
	r.loops.Wait()
}
