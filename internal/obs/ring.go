package obs

import "sync"

// entry is one over-budget span as its shard's ring keeps it. The span's
// ID stays fixed bytes until a reader turns it into a string, so an
// append allocates nothing.
type entry struct {
	traceID uint64
	start   int64 // wall-clock unix nanos
	total   int64
	stages  [NumStages]int64
	id      [tweetIDBytes]byte
	shard   uint8
	idLen   uint8
}

// ring keeps one shard's newest over-budget captures. Only over-budget
// spans append and only /v1/trace/slow reads, so one mutex guards it.
type ring struct {
	mu      sync.Mutex
	entries []entry // a power of two long
	n       uint64  // entries ever appended
}

func newRing(size int) *ring { return &ring{entries: make([]entry, nextPow2(size))} }

// append records the finished span sp, which started at start (unix
// nanos) and ran total nanos, overwriting the oldest entry when full.
//
//redvet:noalloc gate=SpanLifecycle
func (r *ring) append(sp *Span, start, total int64) {
	r.mu.Lock()
	r.entries[r.n&uint64(len(r.entries)-1)] = entry{
		traceID: sp.traceID, start: start, total: total, stages: sp.dur,
		id: sp.id, shard: sp.shard, idLen: sp.idLen,
	}
	r.n++
	r.mu.Unlock()
}

// snapshot returns the captures the ring holds, oldest first.
func (r *ring) snapshot() []Trace {
	r.mu.Lock()
	size := uint64(len(r.entries))
	held := make([]entry, 0, min(r.n, size))
	for idx := r.n - min(r.n, size); idx < r.n; idx++ {
		held = append(held, r.entries[idx&(size-1)])
	}
	r.mu.Unlock()
	out := make([]Trace, len(held))
	for i := range held {
		out[i] = held[i].trace()
	}
	return out
}

// trace is the capture's JSON form: its nonzero stages in stage order.
func (e *entry) trace() Trace {
	tr := Trace{
		TraceID:       e.traceID,
		ID:            string(e.id[:e.idLen]),
		Shard:         int(e.shard),
		StartUnixNano: e.start,
		TotalNanos:    e.total,
	}
	for s := Stage(0); s < NumStages; s++ {
		if d := e.stages[s]; d > 0 {
			tr.Stages = append(tr.Stages, StageNanos{Stage: s.String(), Nanos: d})
		}
	}
	return tr
}
