package obs

import "sync/atomic"

// Ring entries are fixed-size records encoded into atomic.Uint64 words, so
// producers append without locks and concurrent snapshot readers never see
// undefined memory — at worst a torn entry, which the copy protocols below
// detect and drop. The word layout is:
//
//	word 0                    trace ID
//	word 1                    start time (wall-clock unix nanos)
//	word 2                    total span nanos
//	words 3 .. 3+NumStages-1  per-stage nanos
//	word metaWord             shard | idLen<<8 | slow<<16
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
	Slow          bool
	Stages        [NumStages]int64
}

// encodeEntry serializes a finished span into w. The buffer lives on the
// caller's stack; producers copy it word-wise into their slabs.
//
//redvet:noalloc gate=SpanLifecycle
func encodeEntry(w *[entryWords]uint64, sp *Span, epochUnix, total int64, slow bool) {
	w[0] = sp.traceID
	w[1] = uint64(epochUnix + sp.start)
	w[2] = uint64(total)
	for s := 0; s < int(NumStages); s++ {
		w[3+s] = uint64(sp.dur[s])
	}
	meta := uint64(sp.shard) | uint64(sp.idLen)<<8
	if slow {
		meta |= 1 << 16
	}
	w[metaWord] = meta
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
	e.Slow = meta&(1<<16) != 0
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
// shard goroutine) claims the next index, writes its entry words, then
// publishes it by advancing head; readers copy a window of published
// entries and discard any whose slot a later claim reached before the copy
// ended (entry idx shares its slot with entry idx+size).
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

// snapshot returns up to max of the most recent entries, oldest first.
func (r *ring) snapshot(max int) []Entry {
	h1 := r.head.Load()
	n := h1
	if n > r.size {
		n = r.size
	}
	if max > 0 && n > uint64(max) {
		n = uint64(max)
	}
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

// count returns the total number of entries ever appended.
func (r *ring) count() uint64 { return r.head.Load() }

// slowRing is a multi-producer capture ring for over-budget spans. Slot
// ownership is claimed by a fetch-add on head; each slot carries a
// sequence word (0 while being written, claim-index+1 once complete) so a
// reader that races a writer detects the tear and skips the slot.
type slowRing struct {
	cap  uint64
	head atomic.Uint64
	// Per slot: [seq, entry words...].
	buf []atomic.Uint64
}

const slowSlotWords = entryWords + 1

func newSlowRing(capacity int) *slowRing {
	n := uint64(nextPow2(capacity))
	return &slowRing{cap: n, buf: make([]atomic.Uint64, n*uint64(slowSlotWords))}
}

//redvet:noalloc gate=SpanLifecycle
func (r *slowRing) append(w *[entryWords]uint64) {
	idx := r.head.Add(1) - 1
	off := (idx % r.cap) * uint64(slowSlotWords)
	r.buf[off].Store(0) // invalidate while writing
	for i := 0; i < entryWords; i++ {
		r.buf[off+1+uint64(i)].Store(w[i])
	}
	r.buf[off].Store(idx + 1)
}

// snapshot returns the currently valid slow captures, oldest first.
func (r *slowRing) snapshot() []Entry {
	type raw struct {
		seq uint64
		w   [entryWords]uint64
	}
	var copies []raw
	for slot := uint64(0); slot < r.cap; slot++ {
		off := slot * uint64(slowSlotWords)
		s1 := r.buf[off].Load()
		if s1 == 0 {
			continue
		}
		var c raw
		for i := 0; i < entryWords; i++ {
			c.w[i] = r.buf[off+1+uint64(i)].Load()
		}
		if r.buf[off].Load() != s1 {
			continue // torn: a writer lapped this slot mid-copy
		}
		c.seq = s1
		copies = append(copies, c)
	}
	// Claim order is capture order.
	for i := 1; i < len(copies); i++ {
		for j := i; j > 0 && copies[j-1].seq > copies[j].seq; j-- {
			copies[j-1], copies[j] = copies[j], copies[j-1]
		}
	}
	out := make([]Entry, len(copies))
	for i := range copies {
		out[i] = decodeEntry(&copies[i].w)
	}
	return out
}

// reservoir holds k uniformly sampled exemplar entries per shard
// (single-producer, Vitter's algorithm R with a seeded xorshift RNG, so
// exemplar selection is deterministic for a given finish sequence). Slots
// use the slow ring's sequence-word protocol for tear-free reads.
type reservoir struct {
	k     int
	count uint64
	rng   uint64
	buf   []atomic.Uint64 // k slots of [seq, entry words...]
}

func newReservoir(k int, seed uint64) *reservoir {
	if seed == 0 {
		seed = 1
	}
	return &reservoir{k: k, rng: seed, buf: make([]atomic.Uint64, k*slowSlotWords)}
}

// next steps the xorshift64* generator.
//
//redvet:noalloc gate=SpanLifecycle
func (rv *reservoir) next() uint64 {
	x := rv.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	rv.rng = x
	return x * 0x2545f4914f6cdd1d
}

// offer considers one entry for the reservoir. Single producer only.
//
//redvet:noalloc gate=SpanLifecycle
func (rv *reservoir) offer(w *[entryWords]uint64) {
	rv.count++
	var slot uint64
	if rv.count <= uint64(rv.k) {
		slot = rv.count - 1
	} else {
		j := rv.next() % rv.count
		if j >= uint64(rv.k) {
			return
		}
		slot = j
	}
	off := slot * uint64(slowSlotWords)
	rv.buf[off].Store(0)
	for i := 0; i < entryWords; i++ {
		rv.buf[off+1+uint64(i)].Store(w[i])
	}
	rv.buf[off].Store(rv.count)
}

// snapshot returns the current exemplars.
func (rv *reservoir) snapshot() []Entry {
	var out []Entry
	for slot := 0; slot < rv.k; slot++ {
		off := uint64(slot) * uint64(slowSlotWords)
		s1 := rv.buf[off].Load()
		if s1 == 0 {
			continue
		}
		var w [entryWords]uint64
		for i := 0; i < entryWords; i++ {
			w[i] = rv.buf[off+1+uint64(i)].Load()
		}
		if rv.buf[off].Load() != s1 {
			continue
		}
		out = append(out, decodeEntry(&w))
	}
	return out
}
