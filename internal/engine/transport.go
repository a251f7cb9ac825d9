package engine

import (
	"net"

	"redhanded/internal/twitterdata"
)

// The cluster wire protocol (v5). Each driver→executor connection carries a
// gob stream of wireMsg frames; the executor answers data frames (and the
// hello) with batchResponse frames. A session carries four frame kinds:
//
//	hello      one per connection: protocol + model-kind negotiation (a
//	           driver running a model this executor build cannot decode
//	           fails fast at connect)
//	broadcast  one per (node, batch): the statistics always; the model and
//	           the vocabulary under their keys (ModelHash, VocabVersion),
//	           each shipped whole exactly when its key differs from the one
//	           the session acknowledged
//	data       one per share: the tweets plus the share's [lo,hi) bounds
//	shutdown   polite end-of-run so executors drop the session cleanly
//
// One order: a share is the node's broadcast for its batch (sent before the
// node's first share of the batch), then the share's data frame, then its
// response. The next batch's broadcast follows the merge of this one, which
// preserves the test-then-train ordering. A data frame for any batch but the
// current broadcast's breaks that order and ends the session. Broadcast and
// data stay separate kinds so the driver counts their bytes apart.
// Sessions are per connection and the driver resets a node's keys on every
// (re)connect, so a fresh session receives everything. A broadcast that
// elides state the session does not hold fails that batch's shares with an
// Err, which the driver handles like any failed share: fail over, reconnect.

// clusterProtoVersion is negotiated in the hello exchange; mismatched
// driver/executor builds fail fast instead of mis-decoding frames.
const clusterProtoVersion = 5

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
	ModelHash    uint64   // stream.Hash64 of the serialized global model
	ModelBlob    []byte   // omitted when the session already holds ModelHash
	StatsBlob    []byte   // normalizer statistics (always full; they change every batch)
	VocabVersion uint64   // the driver BoW's snapshot version
	VocabWords   []string // the whole vocabulary; omitted when the session holds VocabVersion
	Preprocess   bool
	NormMode     int
	Scheme       int

	// Data fields. Lo/Hi are the share's offsets within the driver's batch.
	// The response echoes them with Seq, and the driver fails an exchange
	// whose response names any other share.
	Lo, Hi int
	Tasks  int
	Tweets []twitterdata.Tweet
}

// batchResponse is the executor→driver frame: the hello ack (Seq < 0) or
// one share's results.
//
//redvet:wire
type batchResponse struct {
	Seq    int64
	Lo, Hi int

	// Share results.
	DeltaBlobs [][]byte
	StatsBlob  []byte
	Classified []classifiedRec
	Err        string

	// ExecNanos is the executor-side wall time spent computing the share
	// (extraction through delta encode). The driver attributes it to the
	// batch span's executor_compute stage — the share round trip's wall
	// time minus this is wire and queueing cost. Zero means no attribution
	// is available.
	ExecNanos int64
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
// to broadcast vs data frames. The node's goroutine is the connection's one
// writer, so a before/after read of out around a frame's encode is exact.
type countingConn struct {
	net.Conn
	out int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}
