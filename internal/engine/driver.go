package engine

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
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
//   - delta broadcasts: the model ships only when its hash changed (and a
//     partitioned model like the ARF ships only the member trees whose
//     per-part hash moved), while the BoW vocabulary ships as an
//     append-only diff with a version handshake — so an unchanged
//     model/vocab costs a few bytes per batch;
//   - pipelining: batch k+1's source read and tweet encode overlap batch
//     k's round trip, while broadcasts stay strictly ordered behind the
//     merge so test-then-train semantics hold.

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
	clusterResyncs = metrics.Default().Counter(
		"redhanded_cluster_resyncs_total",
		"Full re-broadcasts triggered by an executor's NeedResync answer.", nil)
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
	// batch — what a fresh or resynced session receives — so in-package
	// tests have an always-full reference for the delta protocol's byte
	// counts and results.
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
// the broadcast versions the node is known to hold. Version bookkeeping is
// reset on every (re)connect, which is what forces the full resync for a
// fresh session.
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

	// Broadcast state held by the node's current session.
	modelHash    uint64
	modelParts   []uint64 // per-part hashes (partitioned models only)
	vocabVersion uint64
	vocabLen     int
	bcSeq        int64

	presends map[respKey]bool
	pending  map[respKey]chan shareReply
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

// vocabState tracks the driver-side vocabulary as an append-only log plus
// the version counter of the diff protocol. The adaptive BoW mostly grows
// (Fig. 10); when it does evict words, the log is rebuilt and the epoch
// advances, so nodes synced before the rebuild fall back to a full
// broadcast while nodes synced after keep receiving diffs.
type vocabState struct {
	version uint64
	epoch   uint64
	log     []string
	known   map[string]bool
}

// refresh folds the BoW's current word set into the log. Added words are
// appended in sorted order so the wire payload is deterministic.
func (v *vocabState) refresh(words []string) {
	if v.known == nil {
		v.known = make(map[string]bool)
	}
	var added []string
	set := make(map[string]bool, len(words))
	for _, w := range words {
		set[w] = true
		if !v.known[w] {
			added = append(added, w)
		}
	}
	removed := len(set) != len(v.known)+len(added)
	if !removed && len(added) == 0 {
		return
	}
	v.version++
	if removed {
		v.epoch = v.version
		v.log = make([]string, 0, len(set))
		for w := range set {
			v.log = append(v.log, w)
		}
		sort.Strings(v.log)
	} else {
		sort.Strings(added)
		v.log = append(v.log, added...)
	}
	v.known = set
}

// broadcast is one batch's shared broadcast payload, computed once and
// specialized per node into a delta by broadcastFor. Monolithic models
// fill modelBlob; partitioned models fill header/parts/partHashes instead.
type broadcast struct {
	seq        int64
	modelBlob  []byte
	header     []byte
	parts      [][]byte
	partHashes []uint64
	modelHash  uint64
	statsBlob  []byte
	vocabVer   uint64
	vocabEpoch uint64
	vocabLog   []string
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
	vocab vocabState
	stop  chan struct{}

	// Serialization cache: in the cluster driver every model mutation
	// flows through ApplyAccumulators, which advances the model's train
	// count for each labeled observation — so an unchanged train count
	// proves the model bytes are unchanged and the previous batch's
	// encoding (an ARF forest is tens of KB of gob work) can be reused.
	bcModelCount int64
	bcModel      *broadcast

	broadcastBytes atomic.Int64
	dataBytes      atomic.Int64
	failovers      atomic.Int64
	resyncs        atomic.Int64
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
	// The channel closes after the last batch, so a receive yields nil once
	// the source is exhausted.
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
	for cur := <-batches; cur != nil; {
		seq++
		// Take batch k+1 if the source already has it, so its tweets can be
		// pre-sent while batch k's round trip is in flight.
		var ahead []twitterdata.Tweet
		select {
		case ahead = <-batches:
		default:
		}
		batchStart := time.Now()
		if err = r.runBatch(seq, cur, ahead); err != nil {
			break
		}
		m.batch(len(cur), batchStart)
		if ahead == nil {
			ahead = <-batches
		}
		cur = ahead
	}
	stats := m.finish()
	stats.BroadcastBytes = r.broadcastBytes.Load()
	stats.DataBytes = r.dataBytes.Load()
	stats.Failovers = r.failovers.Load()
	stats.Resyncs = r.resyncs.Load()
	stats.Reconnects = r.reconnects.Load()
	return stats, err
}

// runBatch executes one micro-batch: broadcast, run one share per healthy
// node to a decoded output (processShare fails each over on its own),
// pre-send the next batch's tweets, then merge the shares in share order.
// Decoding reads the global model and nothing mutates it before the merge,
// which waits for every share — so a batch is applied whole or not at all.
func (r *clusterRun) runBatch(seq int64, batch, ahead []twitterdata.Tweet) error {
	// The batch span: queue covers broadcast serialization plus the
	// healthy-node wait (everything before dispatch), then executor_rtt,
	// executor_compute (executor-reported), and merge. Finish is deferred so
	// a failed batch still records its partial breakdown.
	sp := r.cfg.Tracer.Begin(0)
	defer sp.Finish()
	var traceID uint64
	if sp != nil {
		sp.SetID("batch-" + strconv.FormatInt(seq, 10))
		traceID = sp.TraceID()
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
			outs[i], execNanos[i], errs[i] = r.processShare(bc, s, batch, traceID, pref)
		}(i, s, healthy[i])
	}
	if len(ahead) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.presend(seq+1, ahead)
		}()
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

// makeBroadcast serializes the batch's global state once and refreshes the
// vocabulary log. Partitioned models serialize as a header plus per-part
// blobs with independent content hashes, so broadcastFor can elide the
// parts a node already holds.
func (r *clusterRun) makeBroadcast(seq int64) (*broadcast, error) {
	bc := &broadcast{
		seq:        seq,
		preprocess: r.p.Options().Preprocess,
		normMode:   int(r.p.Normalizer().Mode),
		scheme:     int(r.p.Options().Scheme),
	}
	model := r.p.Model()
	counter, countable := model.(interface{ TrainCount() int64 })
	if countable && r.bcModel != nil && counter.TrainCount() == r.bcModelCount {
		// Nothing trained since the last broadcast (steady-state unlabeled
		// traffic): the previous encoding is still exact.
		bc.modelBlob = r.bcModel.modelBlob
		bc.header = r.bcModel.header
		bc.parts = r.bcModel.parts
		bc.partHashes = r.bcModel.partHashes
		bc.modelHash = r.bcModel.modelHash
	} else if pm, ok := model.(stream.PartitionedModel); ok {
		header, parts, err := pm.MarshalParts()
		if err != nil {
			return nil, fmt.Errorf("engine: broadcast model: %w", err)
		}
		bc.header, bc.parts = header, parts
		bc.modelHash, bc.partHashes = stream.HashModelParts(header, parts)
	} else {
		modelBlob, err := model.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("engine: broadcast model: %w", err)
		}
		bc.modelBlob = modelBlob
		bc.modelHash = stream.Hash64(modelBlob)
	}
	if countable {
		r.bcModelCount = counter.TrainCount()
		r.bcModel = bc
	}
	statsBlob, err := r.p.Normalizer().Stats.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("engine: broadcast stats: %w", err)
	}
	bc.statsBlob = statsBlob
	r.vocab.refresh(r.p.Extractor().BoW().Words())
	bc.vocabVer = r.vocab.version
	bc.vocabEpoch = r.vocab.epoch
	bc.vocabLog = r.vocab.log
	return bc, nil
}

// broadcastFor specializes the batch broadcast into the delta this node
// needs, given the versions its session holds. Callers hold n.mu.
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
	full := r.cfg.fullBroadcast
	if full || n.modelHash != bc.modelHash {
		switch {
		case bc.parts == nil:
			msg.ModelBlob = bc.modelBlob
		case !full && len(n.modelParts) == len(bc.partHashes):
			// The session holds a part set of the right shape: ship the
			// header plus only the parts whose content hash moved (for the
			// ARF, the drift-replaced or freshly grown member trees).
			msg.ModelHeader = bc.header
			for i, ph := range bc.partHashes {
				if n.modelParts[i] != ph {
					msg.ModelPartIdx = append(msg.ModelPartIdx, i)
					msg.ModelParts = append(msg.ModelParts, bc.parts[i])
				}
			}
		default:
			msg.ModelHeader = bc.header
			msg.ModelParts = bc.parts
			msg.ModelFull = true
		}
	}
	switch {
	case !full && n.vocabVersion == bc.vocabVer:
		msg.VocabBase = bc.vocabVer // up to date: no words on the wire
	case !full && n.vocabVersion > 0 && n.vocabVersion >= bc.vocabEpoch && n.vocabLen <= len(bc.vocabLog):
		msg.VocabBase = n.vocabVersion
		msg.VocabWords = bc.vocabLog[n.vocabLen:]
	default:
		msg.VocabBase = 0 // full replacement
		msg.VocabWords = bc.vocabLog
	}
	return msg
}

// processShare runs one share until its response decodes and returns the
// decoded output with the executor-reported compute time. Whatever ends an
// exchange without one — a dead or wedged node, an error or corrupt payload
// in the response — has already marked the node down, and the share moves
// to another node. It fails only when no executor can serve the share.
func (r *clusterRun) processShare(bc *broadcast, s span, batch []twitterdata.Tweet, traceID uint64, node *execNode) (shareOutput, int64, error) {
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
		out, nanos, err := r.exchange(node, bc, s, batch, traceID)
		if err == nil {
			return out, nanos, nil
		}
		lastErr = err
		tried[node] = true
	}
	return shareOutput{}, 0, fmt.Errorf("engine: share [%d,%d) of batch %d failed on every executor: %w", s.lo, s.hi, bc.seq, lastErr)
}

// exchange performs one share round trip against one node and decodes the
// response, handling the NeedResync handshake by resending the full
// broadcast. Any failure marks the node down before it is returned.
func (r *clusterRun) exchange(n *execNode, bc *broadcast, s span, batch []twitterdata.Tweet, traceID uint64) (shareOutput, int64, error) {
	key := respKey{seq: bc.seq, lo: s.lo, hi: s.hi}
	for resync := 0; ; resync++ {
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
		if err := r.sendShare(n, gen, bc, s, batch, traceID, resync > 0); err != nil {
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
		if rep.resp.NeedResync && resync < 2 {
			r.resyncs.Add(1)
			clusterResyncs.Inc()
			n.mu.Lock()
			n.modelHash, n.modelParts, n.vocabVersion, n.vocabLen, n.bcSeq = 0, nil, 0, 0, -1
			n.mu.Unlock()
			continue
		}
		out, err := r.decodeShare(n, s, &rep.resp)
		if err != nil {
			return fail(err)
		}
		return out, rep.resp.ExecNanos, nil
	}
}

// decodeShare checks one share response and decodes its statistics delta
// and training accumulators. Decoding only reads the global model.
func (r *clusterRun) decodeShare(n *execNode, s span, resp *batchResponse) (shareOutput, error) {
	switch {
	case resp.Err != "":
		return shareOutput{}, fmt.Errorf("engine: executor %s: %s", n.addr, resp.Err)
	case resp.NeedResync:
		return shareOutput{}, fmt.Errorf("engine: executor %s cannot resync", n.addr)
	}
	out := shareOutput{lo: s.lo, classified: resp.Classified, stats: norm.NewFeatureStats(r.p.Normalizer().Stats.Dim())}
	if err := out.stats.UnmarshalBinary(resp.StatsBlob); err != nil {
		return shareOutput{}, fmt.Errorf("engine: executor %s returned corrupt statistics: %w", n.addr, err)
	}
	for _, blob := range resp.DeltaBlobs {
		acc, err := r.p.Model().AccumulatorFromState(blob)
		if err != nil {
			return shareOutput{}, fmt.Errorf("engine: executor %s returned corrupt delta: %w", n.addr, err)
		}
		out.accs = append(out.accs, acc)
	}
	return out, nil
}

// sendShare ships the broadcast (once per node per batch) and the share's
// data frame. forceData resends the tweets even if a presend delivered
// them (the executor consumed the previous copy when it answered
// NeedResync).
func (r *clusterRun) sendShare(n *execNode, gen int, bc *broadcast, s span, batch []twitterdata.Tweet, traceID uint64, forceData bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up || n.gen != gen {
		return fmt.Errorf("engine: executor %s went down", n.addr)
	}
	if n.bcSeq != bc.seq {
		// Entering a new batch: presend records for finished batches are
		// dead weight — prune them so the map stays bounded on long runs.
		for key := range n.presends {
			if key.seq < bc.seq {
				delete(n.presends, key)
			}
		}
		msg := r.broadcastFor(n, bc)
		sent, err := n.send(&msg)
		if err != nil {
			return fmt.Errorf("engine: broadcast to executor %s: %w", n.addr, err)
		}
		r.broadcastBytes.Add(sent)
		clusterBroadcastBytes.Add(sent)
		n.bcSeq = bc.seq
		n.modelHash = bc.modelHash
		n.modelParts = bc.partHashes
		n.vocabVersion = bc.vocabVer
		n.vocabLen = len(bc.vocabLog)
	}
	if forceData || !n.presends[respKey{seq: bc.seq, lo: s.lo, hi: s.hi}] {
		return r.sendData(n, bc.seq, s, batch, traceID)
	}
	return nil
}

// sendData ships one share's tweets to n as a data frame stamped with the
// batch span's trace ID (0 when tracing is off, and for a presend, which
// runs before its batch's span exists), and counts the frame's bytes.
// Callers hold n.mu.
func (r *clusterRun) sendData(n *execNode, seq int64, s span, batch []twitterdata.Tweet, traceID uint64) error {
	sent, err := n.send(&wireMsg{Kind: msgData, Seq: seq, Lo: s.lo, Hi: s.hi,
		Tasks: r.cfg.TasksPerExecutor, Tweets: batch[s.lo:s.hi], TraceID: traceID})
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

// presend ships batch seq's tweet shares to the currently-healthy nodes
// while the previous batch is still in flight. The executor parks them
// until the broadcast arrives; if the node assignment shifts before then
// (failover), the stale copies are superseded by their share bounds.
func (r *clusterRun) presend(seq int64, batch []twitterdata.Tweet) {
	healthy := r.upNodes(nil)
	if len(healthy) == 0 {
		return
	}
	var wg sync.WaitGroup
	for i, s := range splitSpans(len(batch), len(healthy)) {
		wg.Add(1)
		go func(s span, n *execNode) {
			defer wg.Done()
			n.mu.Lock()
			if !n.up {
				n.mu.Unlock()
				return
			}
			gen := n.gen
			err := r.sendData(n, seq, s, batch, 0)
			if err == nil {
				n.presends[respKey{seq: seq, lo: s.lo, hi: s.hi}] = true
			}
			n.mu.Unlock()
			if err != nil {
				r.markDown(n, gen, err)
			}
		}(s, healthy[i])
	}
	wg.Wait()
}

// connect dials a node, runs the hello handshake, and starts its receive
// loop. The node's broadcast bookkeeping is reset so the next batch sends
// the full state.
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
	n.modelHash, n.modelParts, n.vocabVersion, n.vocabLen, n.bcSeq = 0, nil, 0, 0, -1
	n.presends = make(map[respKey]bool)
	n.pending = make(map[respKey]chan shareReply)
	n.mu.Unlock()
	go r.recvLoop(n, gen, dec)
	return nil
}

// recvLoop decodes responses for one connection generation and routes them
// to the waiting share exchanges. Responses for shares nobody is waiting on
// (stale presends processed after a reassignment) are dropped.
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
	n.presends = nil
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
