package engine

import (
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
//   - failover: per-node health tracking with reconnect-and-backoff. A share
//     is done when its response decodes; when its node dies, times out or
//     answers with a payload that does not decode, processShare — the one
//     place a share is retried — moves it to a survivor, so a batch
//     completes as long as one executor lives;
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
		"Batch shares reassigned because an executor failed mid-batch.", nil)
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
	// MaxConnAttempts bounds consecutive failed (re)connect attempts per
	// executor before the run abandons it (default 5).
	MaxConnAttempts int
	// ReconnectBackoff is the initial reconnect delay, doubling per attempt
	// up to 1s (default 50ms).
	ReconnectBackoff time.Duration
	// AllDownWait is how long a batch start or a failing-over share waits
	// for any executor to come back when every node is down, before failing
	// the run (default 5s).
	AllDownWait time.Duration
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
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 6000
	}
	if c.TasksPerExecutor <= 0 {
		c.TasksPerExecutor = 8
	}
	if c.MaxConnAttempts <= 0 {
		c.MaxConnAttempts = 5
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 50 * time.Millisecond
	}
	if c.AllDownWait <= 0 {
		c.AllDownWait = 5 * time.Second
	}
	return c
}

// shareTimeout bounds one share's round trip and every frame write. A
// wedged-but-connected executor (stopped process, half-open connection)
// never produces a transport error, so the timeout is what converts it into
// a failover. It is generous: a share normally completes in milliseconds.
const shareTimeout = 2 * time.Minute

// execNode is the driver's view of one executor: connection, health, and
// the broadcast keys the node's session holds. The keys are reset on every
// (re)connect, so a fresh session receives the full state.
type execNode struct {
	id   int
	addr string

	mu        sync.Mutex
	conn      *countingConn
	enc       *gob.Encoder
	dec       *gob.Decoder
	gen       int // connection generation; stale recvLoops no-op
	up        bool
	abandoned bool
	reviving  bool

	// Broadcast keys held by the node's current session.
	modelHash    uint64
	vocabVersion uint64
	bcSeq        int64

	pending map[respKey]chan shareReply
}

type shareReply struct {
	resp batchResponse
	err  error
}

func (n *execNode) isUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// register adds a pending reply slot for one share exchange.
func (n *execNode) register(key respKey) (chan shareReply, int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up {
		return nil, 0, fmt.Errorf("engine: executor %s is down", n.addr)
	}
	ch := make(chan shareReply, 1)
	n.pending[key] = ch
	return ch, n.gen, nil
}

func (n *execNode) unregister(key respKey) {
	n.mu.Lock()
	if n.pending != nil {
		delete(n.pending, key)
	}
	n.mu.Unlock()
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

	// Serialization cache: in the cluster driver every model mutation
	// flows through ApplyAccumulators, which advances the model's train
	// count for each labeled observation — so an unchanged train count
	// proves the model bytes are unchanged and the previous batch's
	// encoding (an ARF forest is tens of KB of gob work) can be reused.
	// The vocabulary words are reused while the BoW's version holds.
	bcModelCount int64
	last         *broadcast

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
	for i, addr := range cfg.Executors {
		r.nodes = append(r.nodes, &execNode{id: i, addr: addr, bcSeq: -1})
	}
	defer r.shutdown()

	// Initial connect, in parallel. A node that fails its first dial goes
	// through the normal revive path; the run starts as long as any node
	// answered, and fails fast when none did.
	var connWG sync.WaitGroup
	errs := make([]error, len(r.nodes))
	for i, n := range r.nodes {
		connWG.Add(1)
		go func(i int, n *execNode) {
			defer connWG.Done()
			errs[i] = r.connect(n)
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
	for i, n := range r.nodes {
		if errs[i] != nil {
			go r.revive(n)
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
	model := r.p.Model()
	counter, countable := model.(interface{ TrainCount() int64 })
	if countable && r.last != nil && counter.TrainCount() == r.bcModelCount {
		// Nothing trained since the last broadcast (steady-state unlabeled
		// traffic): the previous encoding is still exact.
		bc.modelBlob, bc.modelHash = r.last.modelBlob, r.last.modelHash
	} else {
		modelBlob, err := model.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("engine: broadcast model: %w", err)
		}
		bc.modelBlob, bc.modelHash = modelBlob, stream.Hash64(modelBlob)
	}
	if countable {
		r.bcModelCount = counter.TrainCount()
	}
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
// exchange without one — a dead or wedged node, an error or corrupt payload
// in the response — has already marked the node down, and the share moves
// to another node. It fails only when no executor can serve the share.
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

// exchange performs one share round trip against one node and decodes the
// response. Any failure marks the node down before it is returned.
func (r *clusterRun) exchange(n *execNode, bc *broadcast, s span, batch []twitterdata.Tweet) (shareOutput, int64, error) {
	key := respKey{seq: bc.seq, lo: s.lo, hi: s.hi}
	ch, gen, err := n.register(key)
	if err != nil {
		return shareOutput{}, 0, err
	}
	fail := func(err error) (shareOutput, int64, error) {
		n.unregister(key)
		r.markDown(n, gen, err)
		return shareOutput{}, 0, err
	}
	start := time.Now()
	if err := r.sendShare(n, gen, bc, s, batch); err != nil {
		return fail(err)
	}
	var rep shareReply
	timeout := time.NewTimer(shareTimeout)
	select {
	case rep = <-ch:
		timeout.Stop()
	case <-timeout.C:
		// A wedged-but-connected executor never errors the transport;
		// time it out so the share can fail over to a live node.
		return fail(fmt.Errorf("engine: executor %s did not answer share [%d,%d) within %v", n.addr, s.lo, s.hi, shareTimeout))
	}
	if rep.err != nil {
		return fail(rep.err)
	}
	clusterShareRTT.Observe(time.Since(start).Seconds())
	out, err := r.decodeShare(n, s, &rep.resp)
	if err != nil {
		return fail(err)
	}
	return out, rep.resp.ExecNanos, nil
}

// decodeShare checks one share response and decodes its statistics delta
// and training accumulators. Decoding only reads the global model.
func (r *clusterRun) decodeShare(n *execNode, s span, resp *batchResponse) (shareOutput, error) {
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
// counts each frame's bytes.
func (r *clusterRun) sendShare(n *execNode, gen int, bc *broadcast, s span, batch []twitterdata.Tweet) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up || n.gen != gen {
		return fmt.Errorf("engine: executor %s went down", n.addr)
	}
	if n.bcSeq != bc.seq {
		msg := r.broadcastFor(n, bc)
		sent, err := n.send(&msg)
		if err != nil {
			return fmt.Errorf("engine: broadcast to executor %s: %w", n.addr, err)
		}
		r.broadcastBytes.Add(sent)
		clusterBroadcastBytes.Add(sent)
		n.bcSeq, n.modelHash, n.vocabVersion = bc.seq, bc.modelHash, bc.vocabVer
	}
	sent, err := n.send(&wireMsg{Kind: msgData, Seq: bc.seq, Lo: s.lo, Hi: s.hi,
		Tasks: r.cfg.TasksPerExecutor, Tweets: batch[s.lo:s.hi]})
	if err != nil {
		return fmt.Errorf("engine: send share to executor %s: %w", n.addr, err)
	}
	r.dataBytes.Add(sent)
	clusterDataBytes.Add(sent)
	return nil
}

// send writes one frame with a write deadline and returns its size on the
// wire. Sends happen under the node mutex, which markDown also needs
// before it can close the connection — so an unbounded write to a peer
// that stopped reading would deadlock the node forever. The deadline
// converts it into a send error the caller turns into a failover. Callers
// hold n.mu.
func (n *execNode) send(msg *wireMsg) (int64, error) {
	pre := n.conn.out.Load()
	_ = n.conn.SetWriteDeadline(time.Now().Add(shareTimeout))
	err := n.enc.Encode(msg)
	_ = n.conn.SetWriteDeadline(time.Time{})
	return n.conn.out.Load() - pre, err
}

// connect dials a node, runs the hello handshake, and starts its receive
// loop. The node's broadcast keys are reset so the next batch sends the
// full state.
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
	n.gen++
	gen := n.gen
	n.up = true
	n.modelHash, n.vocabVersion, n.bcSeq = 0, 0, -1
	n.pending = make(map[respKey]chan shareReply)
	n.mu.Unlock()
	go r.recvLoop(n, gen, dec)
	return nil
}

// recvLoop decodes responses for one connection generation and routes them
// to the waiting share exchanges. A response nobody is waiting on is
// dropped.
func (r *clusterRun) recvLoop(n *execNode, gen int, dec *gob.Decoder) {
	for {
		var resp batchResponse
		if err := dec.Decode(&resp); err != nil {
			r.markDown(n, gen, fmt.Errorf("engine: receive from executor %s: %w", n.addr, err))
			return
		}
		key := respKey{seq: resp.Seq, lo: resp.Lo, hi: resp.Hi}
		n.mu.Lock()
		if n.gen != gen {
			n.mu.Unlock()
			return
		}
		ch := n.pending[key]
		if ch != nil {
			delete(n.pending, key)
		}
		n.mu.Unlock()
		if ch != nil {
			ch <- shareReply{resp: resp}
		}
	}
}

// markDown transitions a node to unhealthy exactly once per connection
// generation: it closes the connection, fails the pending exchanges so
// their shares fail over, and starts the reconnect loop.
func (r *clusterRun) markDown(n *execNode, gen int, err error) {
	n.mu.Lock()
	if !n.up || n.gen != gen {
		n.mu.Unlock()
		return
	}
	n.up = false
	conn := n.conn
	pend := n.pending
	n.pending = nil
	n.mu.Unlock()
	conn.Close()
	for _, ch := range pend {
		ch <- shareReply{err: err}
	}
	select {
	case <-r.stop:
		return
	default:
	}
	go r.revive(n)
}

// revive reconnects a downed node with exponential backoff, abandoning it
// after MaxConnAttempts consecutive failures.
func (r *clusterRun) revive(n *execNode) {
	n.mu.Lock()
	if n.reviving || n.abandoned || n.up {
		n.mu.Unlock()
		return
	}
	n.reviving = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.reviving = false
		// A markDown between our connect succeeding and this flag clearing
		// saw reviving=true and declined to spawn; if the node went down
		// again in that window, pick the baton back up ourselves so it is
		// neither retried-by-nobody nor abandoned-by-nobody.
		respawn := !n.up && !n.abandoned
		n.mu.Unlock()
		if !respawn {
			return
		}
		select {
		case <-r.stop:
		default:
			go r.revive(n)
		}
	}()
	backoff := r.cfg.ReconnectBackoff
	for attempt := 1; attempt <= r.cfg.MaxConnAttempts; attempt++ {
		select {
		case <-r.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
		err := r.connect(n)
		if err == nil {
			r.reconnects.Add(1)
			clusterReconnects.Inc()
			return
		}
		if n.abandonedNow() { // hello rejection: retrying cannot help
			return
		}
	}
	n.mu.Lock()
	n.abandoned = true
	n.mu.Unlock()
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
// fails once every node is abandoned or none came up within AllDownWait.
func (r *clusterRun) awaitHealthy(skip map[*execNode]bool) ([]*execNode, error) {
	deadline := time.Now().Add(r.cfg.AllDownWait)
	for {
		if up := r.upNodes(skip); len(up) > 0 {
			return up, nil
		}
		if r.allAbandoned() {
			return nil, fmt.Errorf("engine: every executor is gone (abandoned after %d attempts each)", r.cfg.MaxConnAttempts)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("engine: every executor is down and none reconnected within %v", r.cfg.AllDownWait)
		}
		clear(skip)
		time.Sleep(15 * time.Millisecond)
	}
}

// shutdown ends the run: reconnect loops stop, up nodes get the polite
// shutdown frame, and every connection is closed.
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
}
