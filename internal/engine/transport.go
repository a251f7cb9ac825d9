package engine

import (
	"net"
	"sync/atomic"

	"redhanded/internal/twitterdata"
)

// The cluster wire protocol (v3). Each driver→executor connection carries a
// gob stream of wireMsg frames; the executor answers data frames (and the
// hello) with batchResponse frames. A session carries four frame kinds:
//
//	hello      one per connection: protocol + model-kind negotiation (the
//	           kind set comes from the stream codec registry, so a driver
//	           running a model this executor build cannot decode fails
//	           fast at connect)
//	broadcast  one per (node, batch): stats always; the model only when its
//	           hash changed — a stream.PartitionedModel (the ARF) as a
//	           header plus only the parts whose own hash moved, such as a
//	           drift-replaced or freshly grown member; the vocabulary as an
//	           append-only diff against the version the node acknowledged
//	           (the adaptive BoW mostly grows, Fig. 10, so the steady-state
//	           diff is empty)
//	data       one per share: the tweets plus the share's [lo,hi) bounds
//	shutdown   polite end-of-run so executors drop the session cleanly
//
// Splitting broadcast from data is what enables pipelining: the driver
// encodes and ships batch k+1's tweets while batch k's round trip is still
// in flight, and sends k+1's broadcast only after k's deltas are merged —
// preserving the test-then-train ordering the driver-side merge requires.
// The version handshake (ModelHash, VocabBase→VocabVersion) lets a
// reconnecting executor resync from scratch: the driver resets its per-node
// bookkeeping on every (re)connect, and an executor that receives a delta
// it has no base for answers NeedResync instead of guessing.

// clusterProtoVersion is negotiated in the hello exchange; mismatched
// driver/executor builds fail fast instead of mis-decoding frames.
const clusterProtoVersion = 3

// Message kinds carried in wireMsg.Kind.
const (
	msgHello uint8 = iota + 1
	msgBroadcast
	msgData
	msgShutdown
)

// wireMsg is every driver→executor frame. gob omits zero-valued fields, so
// a data frame costs nothing for the broadcast fields and vice versa.
//
//redvet:wire
type wireMsg struct {
	Kind uint8
	Seq  int64

	// Hello fields.
	Proto     int
	ModelKind string

	// Broadcast fields.
	ModelHash uint64 // stream.Hash64 of the serialized global model
	ModelBlob []byte // monolithic kinds; omitted when the executor already holds ModelHash

	// Partitioned kinds (stream.PartitionedModel) broadcast a header plus
	// per-part blobs instead of ModelBlob. ModelFull marks a complete part
	// set (fresh restore); otherwise ModelParts carries only the parts at
	// ModelPartIdx, patched onto the model the session already holds.
	ModelHeader  []byte
	ModelPartIdx []int
	ModelParts   [][]byte
	ModelFull    bool

	StatsBlob    []byte // normalizer statistics (always full; they change every batch)
	VocabBase    uint64 // vocab version the words extend (0 = full replacement)
	VocabVersion uint64 // vocab version after applying this message
	VocabWords   []string
	Preprocess   bool
	NormMode     int
	Scheme       int

	// Data fields. Lo/Hi are the share's offsets within the driver's batch;
	// they key the response back to the share even after failover reassigns
	// it, and distinguish fresh shares from stale pre-sent ones whose
	// boundaries changed when the healthy-node set did.
	Lo, Hi int
	Tasks  int
	Tweets []twitterdata.Tweet

	// TraceID carries the driver's batch-span trace context (0 when driver
	// tracing is off, and on pre-sent frames, which ship before their batch
	// span exists). gob elides zero fields and ignores unknown ones, so the
	// field is compatible in both directions with executors that predate it
	// — the protocol version stays 3.
	TraceID uint64
}

// batchResponse is the executor→driver frame: the hello ack (Seq < 0) or
// one share's results.
//
//redvet:wire
type batchResponse struct {
	Seq    int64
	Lo, Hi int

	// Hello-ack fields.
	Proto int

	// NeedResync reports that the executor cannot apply the broadcast it
	// was sent (unknown model hash or vocabulary base); the driver answers
	// by resending the full state.
	NeedResync bool

	// Share results.
	DeltaBlobs [][]byte
	StatsBlob  []byte
	Classified []classifiedRec
	Err        string

	// Trace echo: the data frame's TraceID and the executor-side wall time
	// spent computing the share (extraction through delta encode). The
	// driver attributes ExecNanos to the batch span's executor_compute
	// stage — the share round trip's wall time minus this is wire and
	// queueing cost. Old executors leave both zero (gob omits them), which
	// the driver treats as "no attribution available".
	TraceID   uint64
	ExecNanos int64
}

// respKey addresses one share exchange on a connection.
type respKey struct {
	seq    int64
	lo, hi int
}

// span is one contiguous share of a batch.
type span struct{ lo, hi int }

// splitSpans divides n items contiguously into at most k non-empty shares
// of equal length, the last one possibly shorter.
func splitSpans(n, k int) []span {
	k = max(k, 1)
	per := (n + k - 1) / k
	var out []span
	for lo := 0; lo < n; lo += per {
		out = append(out, span{lo, min(lo+per, n)})
	}
	return out
}

// countingConn counts bytes written, so the driver can attribute wire cost
// to broadcast vs data frames (sends are serialized per node, making the
// before/after snapshot attribution exact).
type countingConn struct {
	net.Conn
	out atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
