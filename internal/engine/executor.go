package engine

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/feature"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
)

// Executor is one cluster node: it listens on a TCP address and serves
// batch shares with a local worker pool. The paper's cluster nodes have 8
// cores each. Each connection is an independent session holding the last
// broadcast state (decoded model keyed by its hash, normalizer statistics,
// vocabulary keyed by its version), so an unchanged model or vocabulary
// costs the driver a few bytes instead of a full re-broadcast.
type Executor struct {
	ln      net.Listener
	workers int

	mu       sync.Mutex
	closed   bool
	handled  int64
	serveErr error
	conns    map[net.Conn]bool

	// inflight tracks shares being processed (including their response
	// flush) so Close can drain them instead of hard-closing connections
	// under the drivers; loops tracks the accept and connection goroutines.
	inflight sync.WaitGroup
	loops    sync.WaitGroup

	vocabSize atomic.Int64

	// corruptDeltas is a fault-injection hook used by the driver's
	// failover tests: when set, returned delta blobs are flipped so the
	// driver's decode check fails the share over.
	corruptDeltas atomic.Bool
	// shareHook, when set (under mu), runs at the start of every share —
	// fault tests use it to crash the executor at a precise point.
	shareHook func()
	// onHello, when set (under mu), observes every hello negotiation —
	// cmd/rhexecutor logs the model kind each driver session settles on.
	onHello func(modelKind string, accepted bool)
}

// OnHello registers an observer called after every hello negotiation with
// the requested model kind and whether the session was accepted. Set it
// before drivers connect.
func (e *Executor) OnHello(fn func(modelKind string, accepted bool)) {
	e.mu.Lock()
	e.onHello = fn
	e.mu.Unlock()
}

// kill abruptly severs the executor — listener and connections close with
// no drain, the test stand-in for a crashed process (SIGKILL, OOM, node
// loss). In-flight shares lose their connections mid-response, which is
// exactly what the driver's failover path must absorb.
func (e *Executor) kill() {
	e.mu.Lock()
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// drainTimeout bounds how long Close waits for in-flight shares to flush
// their responses before closing connections under them.
const drainTimeout = 10 * time.Second

// StartExecutor launches an executor listening on addr (use "127.0.0.1:0"
// for an ephemeral port).
func StartExecutor(addr string, workers int) (*Executor, error) {
	if workers < 1 {
		workers = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("engine: executor listen: %w", err)
	}
	e := &Executor{ln: ln, workers: workers, conns: make(map[net.Conn]bool)}
	e.loops.Add(1)
	go e.serve()
	return e, nil
}

// Addr returns the executor's listen address.
func (e *Executor) Addr() string { return e.ln.Addr().String() }

// Handled returns how many batch shares this executor served.
func (e *Executor) Handled() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.handled
}

// Err returns the accept-loop failure, if any. A listener torn down by
// anything other than Close surfaces here, so operators and tests can see
// why an executor stopped serving.
func (e *Executor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.serveErr
}

// LastVocabSize reports the BoW vocabulary size observed by the most
// recently served share — the executor-side view of the vocabulary
// broadcast (a reconnected executor shows the driver's full vocabulary).
func (e *Executor) LastVocabSize() int { return int(e.vocabSize.Load()) }

// ActiveConns returns the number of live driver connections.
func (e *Executor) ActiveConns() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.conns)
}

// Close stops the executor gracefully: it stops accepting, waits for
// in-flight shares to finish and flush their responses, then closes the
// remaining connections. It returns the accept-loop error, if any.
func (e *Executor) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.loops.Wait()
		return e.Err()
	}
	e.closed = true
	e.mu.Unlock()
	e.ln.Close()
	// Drain: shares already being processed complete and their responses
	// reach the driver before the connections go away. The wait is bounded
	// so a driver that stopped reading (hung process, dead network path
	// with a full TCP window) cannot block shutdown forever — past the
	// deadline the connections are closed under the stuck flush.
	drained := make(chan struct{})
	go func() {
		e.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	e.mu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.loops.Wait()
	return e.Err()
}

func (e *Executor) serve() {
	defer e.loops.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			e.mu.Lock()
			if !e.closed {
				e.serveErr = err
			}
			e.mu.Unlock()
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			continue
		}
		e.conns[conn] = true
		e.loops.Add(1)
		e.mu.Unlock()
		go e.serveConn(conn)
	}
}

// execSession is the per-connection protocol state: the negotiated model
// kind, the decoded model and its hash, the current normalizer statistics,
// and the persistent extractor whose BoW holds the broadcast vocabulary
// version. A share's data frame follows its batch's broadcast, so every
// data frame belongs to the current broadcast's batch.
type execSession struct {
	e   *Executor
	enc *gob.Encoder
	dec *gob.Decoder

	modelKind string
	model     stream.Model
	modelHash uint64

	stats    *norm.FeatureStats
	normMode int
	scheme   int

	extractor    *feature.Extractor
	preprocess   bool
	vocabVersion uint64

	seq int64
	// bcErr is why the current broadcast cannot serve shares ("" once it
	// installed); a data frame answers it as the share's Err.
	bcErr string
}

func (e *Executor) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
		e.loops.Done()
	}()
	s := &execSession{e: e, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn),
		bcErr: "engine: data frame before any broadcast"}
	for {
		var msg wireMsg
		if err := s.dec.Decode(&msg); err != nil {
			return // connection closed or corrupted; the driver fails over
		}
		switch msg.Kind {
		case msgHello:
			if !s.hello(&msg) {
				return
			}
		case msgShutdown:
			return // polite end-of-run
		case msgBroadcast:
			s.seq, s.bcErr = msg.Seq, ""
			if err := s.applyBroadcast(&msg); err != nil {
				s.bcErr = err.Error()
			}
		case msgData:
			// A frame for another batch than the current broadcast's breaks
			// the wire order: end the session, and the driver fails over.
			if msg.Seq != s.seq || !s.processData(&msg) {
				return
			}
		default:
			return // protocol violation
		}
	}
}

// hello negotiates the protocol version and model kind for the session.
func (s *execSession) hello(msg *wireMsg) bool {
	resp := batchResponse{Seq: msg.Seq}
	switch {
	case msg.Proto != clusterProtoVersion:
		resp.Err = fmt.Sprintf("engine: driver speaks cluster protocol v%d, executor v%d", msg.Proto, clusterProtoVersion)
	case !stream.KnownKind(msg.ModelKind):
		resp.Err = fmt.Sprintf("engine: executor cannot host model kind %q (known: %v)",
			msg.ModelKind, stream.KnownKinds())
	default:
		s.modelKind = msg.ModelKind
	}
	s.e.mu.Lock()
	hook := s.e.onHello
	s.e.mu.Unlock()
	if hook != nil {
		hook(msg.ModelKind, resp.Err == "")
	}
	if err := s.enc.Encode(&resp); err != nil {
		return false
	}
	return resp.Err == ""
}

// applyBroadcast installs one batch's broadcast state. The model and the
// vocabulary each arrive whole or elided; an elided one must be the one
// this session holds, by key. A broadcast the session cannot install fails
// the batch's shares, so the driver fails them over and reconnects.
func (s *execSession) applyBroadcast(msg *wireMsg) error {
	s.normMode, s.scheme = msg.NormMode, msg.Scheme
	switch {
	case len(msg.ModelBlob) > 0:
		m, err := stream.DecodeModel(s.modelKind, msg.ModelBlob)
		if err != nil {
			return err
		}
		s.model, s.modelHash = m, msg.ModelHash
	case s.model == nil || s.modelHash != msg.ModelHash:
		return fmt.Errorf("engine: broadcast elides model %016x, session holds %016x", msg.ModelHash, s.modelHash)
	}

	stats := norm.NewFeatureStats(feature.NumFeatures)
	if err := stats.UnmarshalBinary(msg.StatsBlob); err != nil {
		return err
	}
	s.stats = stats

	if s.extractor == nil || s.preprocess != msg.Preprocess {
		// Adaptation happens at the driver only.
		s.extractor = feature.NewExtractor(feature.Config{Preprocess: msg.Preprocess, BoW: feature.BoWConfig{Frozen: true}})
		s.preprocess = msg.Preprocess
		s.vocabVersion = 0
	}
	// The vocabulary always holds the seed lexicon, so shipped words are
	// never an empty list.
	switch {
	case len(msg.VocabWords) > 0:
		s.extractor.BoW().SetWords(msg.VocabWords)
		s.vocabVersion = msg.VocabVersion
	case s.vocabVersion != msg.VocabVersion:
		return fmt.Errorf("engine: broadcast elides vocabulary version %d, session holds %d", msg.VocabVersion, s.vocabVersion)
	}
	return nil
}

// processData runs one share against the current broadcast state and sends
// the response. The inflight window spans through the response encode so
// Close's drain guarantees the driver sees the result.
func (s *execSession) processData(msg *wireMsg) bool {
	resp := batchResponse{Seq: msg.Seq, Lo: msg.Lo, Hi: msg.Hi}
	busy := false
	switch {
	case s.bcErr != "":
		resp.Err = s.bcErr
	default:
		e := s.e
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return false
		}
		e.inflight.Add(1)
		e.handled++
		hook := e.shareHook
		e.mu.Unlock()
		busy = true
		if hook != nil {
			hook()
		}
		start := time.Now()
		resp = s.runShare(msg)
		resp.ExecNanos = int64(time.Since(start))
		if e.corruptDeltas.Load() {
			for _, blob := range resp.DeltaBlobs {
				for i := range blob {
					blob[i] ^= 0xff
				}
			}
		}
	}
	err := s.enc.Encode(&resp)
	if busy {
		s.e.inflight.Done()
	}
	return err == nil
}

// runShare computes one share against the session's broadcast state and
// encodes the result for the wire; the authoritative merge happens at the
// driver.
func (s *execSession) runShare(msg *wireMsg) batchResponse {
	resp := batchResponse{Seq: msg.Seq, Lo: msg.Lo, Hi: msg.Hi}
	s.e.vocabSize.Store(int64(s.extractor.BoW().Size()))
	out := computeShare(s.extractor, s.stats, norm.Mode(s.normMode), core.ClassScheme(s.scheme),
		s.model, s.model.CompileSnapshot(nil), msg.Tweets, msg.Tasks, s.e.workers)
	for _, acc := range out.accs {
		blob, err := acc.(stream.StatefulAccumulator).State()
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.DeltaBlobs = append(resp.DeltaBlobs, blob)
	}
	statsBlob, err := out.stats.MarshalBinary()
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.StatsBlob = statsBlob
	resp.Classified = out.classified
	return resp
}
