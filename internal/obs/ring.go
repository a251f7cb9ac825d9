package obs

import "sync/atomic"

// Ring entries are fixed-size records encoded into atomic.Uint64 words, so
// a shard appends without locks and concurrent snapshot readers never see
// undefined memory — at worst a torn entry, which the ring's claim/head
// protocol detects and drops. The word layout is:
//
//	word 0                    trace ID
//	word 1                    start time (wall-clock unix nanos)
//	word 2                    total span nanos
//	words 3 .. 3+NumStages-1  per-stage nanos
//	word metaWord             shard | idLen<<8
//	words idWord ..           tweet/batch ID bytes (tweetIDBytes, truncated)
const (
	metaWord   = 3 + int(NumStages)
	idWord     = metaWord + 1
	idWords    = (tweetIDBytes + 7) / 8
	entryWords = idWord + idWords
)

// Entry is one decoded trace record.
type Entry struct {
	TraceID       uint64
	ID            string
	Shard         int
	StartUnixNano int64
	TotalNanos    int64
	Stages        [NumStages]int64
}

// encodeEntry serializes a finished span into w. The buffer lives on the
// caller's stack; the ring copies it word-wise into its slab.
//
//redvet:noalloc gate=SpanLifecycle
func encodeEntry(w *[entryWords]uint64, sp *Span, epochUnix, total int64) {
	w[0] = sp.traceID
	w[1] = uint64(epochUnix + sp.start)
	w[2] = uint64(total)
	for s := 0; s < int(NumStages); s++ {
		w[3+s] = uint64(sp.dur[s])
	}
	w[metaWord] = uint64(sp.shard) | uint64(sp.idLen)<<8
	for i := 0; i < idWords; i++ {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(sp.id[i*8+b]) << (8 * b)
		}
		w[idWord+i] = v
	}
}

// decodeEntry parses one copied word block.
func decodeEntry(w *[entryWords]uint64) Entry {
	e := Entry{
		TraceID:       w[0],
		StartUnixNano: int64(w[1]),
		TotalNanos:    int64(w[2]),
	}
	for s := 0; s < int(NumStages); s++ {
		e.Stages[s] = int64(w[3+s])
	}
	meta := w[metaWord]
	e.Shard = int(meta & 0xff)
	idLen := int(meta >> 8 & 0xff)
	if idLen > tweetIDBytes {
		idLen = tweetIDBytes
	}
	var id [tweetIDBytes]byte
	for i := 0; i < idWords; i++ {
		v := w[idWord+i]
		for b := 0; b < 8; b++ {
			id[i*8+b] = byte(v >> (8 * b))
		}
	}
	e.ID = string(id[:idLen])
	return e
}

// ring is a single-producer, multi-reader trace ring. The producer (the
// one goroutine that finishes the shard's spans) claims the next index,
// writes its entry words, then publishes it by advancing head; readers
// copy a window of published entries and discard any whose slot a later
// claim reached before the copy ended (entry idx shares its slot with
// entry idx+size).
type ring struct {
	mask  uint64
	size  uint64
	claim atomic.Uint64 // entries whose write has begun
	head  atomic.Uint64 // entries whose write has ended
	buf   []atomic.Uint64
}

func newRing(size int) *ring {
	n := uint64(nextPow2(size))
	return &ring{mask: n - 1, size: n, buf: make([]atomic.Uint64, n*uint64(entryWords))}
}

// append publishes one entry. Single producer only.
//
//redvet:noalloc gate=SpanLifecycle
func (r *ring) append(w *[entryWords]uint64) {
	h := r.head.Load()
	r.claim.Store(h + 1) // before the first word lands in entry h-size's slot
	off := (h & r.mask) * uint64(entryWords)
	for i := 0; i < entryWords; i++ {
		r.buf[off+uint64(i)].Store(w[i])
	}
	r.head.Store(h + 1)
}

// snapshot returns the entries the ring still holds, oldest first.
func (r *ring) snapshot() []Entry {
	h1 := r.head.Load()
	n := min(h1, r.size)
	if n == 0 {
		return nil
	}
	type raw struct {
		idx uint64
		w   [entryWords]uint64
	}
	copies := make([]raw, 0, n)
	for idx := h1 - n; idx < h1; idx++ {
		c := raw{idx: idx}
		off := (idx & r.mask) * uint64(entryWords)
		for i := 0; i < entryWords; i++ {
			c.w[i] = r.buf[off+uint64(i)].Load()
		}
		copies = append(copies, c)
	}
	// An entry whose slot the producer had claimed by the end of the copy
	// may be torn: drop it. An idle ring's claim equals its head, so it
	// keeps every entry.
	c := r.claim.Load()
	out := make([]Entry, 0, len(copies))
	for i := range copies {
		if copies[i].idx+r.size < c {
			continue
		}
		out = append(out, decodeEntry(&copies[i].w))
	}
	return out
}
