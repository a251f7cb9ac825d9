package userstate

import (
	"math/bits"
	"strings"
)

// A stripe is one shard's users as a flat table. Records sit by value in
// a slab and are named by their int32 slab index; an open-addressed index
// maps an ID hash to that index. The CLOCK ring lists the resident
// records in eviction order, each entry carrying the record's newest event
// time and its reference/suspended flags beside its slab index, so the TTL
// sweep and the CLOCK hand decide without reading a record. The slab is
// kept dense — an evicted record's slot takes the slab's last record — so
// its memory follows the population down, and the vacated slot keeps its
// verdict ring and window capacity for the next user: a store whose users
// churn allocates nothing once it has reached its size.
type stripe struct {
	index   index
	slab    slab
	ring    []resident // CLOCK ring, in eviction order
	hand    int
	maxTime int64 // newest event time observed by this shard
}

// resident is one CLOCK ring entry: 16 bytes, four to a cache line.
type resident struct {
	lastSeen int64 // the record's newest event time
	rec      int32 // slab index
	flags    uint8 // flagRef, flagSuspended
}

const (
	flagRef       uint8 = 1 << iota // CLOCK reference bit
	flagSuspended                   // offense history: suspension latch
)

// slab holds records by value in fixed-size chunks, each with the
// records' last-N verdict rings beside them. Growing it allocates one
// chunk and copies no record; it gives a chunk back once two lie unused.
type slab struct {
	chunks  []*chunk
	n       int32 // slots in use: 0..n-1
	ringLen int
}

const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

type chunk struct {
	recs   [chunkLen]record
	recent []entry // ringLen entries per record
}

func (sb *slab) at(i int32) *record { return &sb.chunks[i>>chunkBits].recs[i&(chunkLen-1)] }

// verdicts returns slot i's last-N verdict ring.
func (sb *slab) verdicts(i int32) []entry {
	lo := int(i&(chunkLen-1)) * sb.ringLen
	return sb.chunks[i>>chunkBits].recent[lo : lo+sb.ringLen]
}

// next hands out slot n, adding a chunk when the last is full.
func (sb *slab) next() int32 {
	if int(sb.n) == len(sb.chunks)*chunkLen {
		sb.chunks = append(sb.chunks, &chunk{recent: make([]entry, chunkLen*sb.ringLen)})
	}
	sb.n++
	return sb.n - 1
}

// pop gives back the last slot, and the last chunk once the one before it
// is unused too, so a population hovering at a chunk boundary does not
// allocate.
func (sb *slab) pop() {
	sb.n--
	if k := len(sb.chunks) - 1; int(sb.n) <= (k-1)*chunkLen {
		sb.chunks[k] = nil
		sb.chunks = sb.chunks[:k]
	}
}

// add makes an empty record for id, whose hash is h, at the end of the
// slab and of the CLOCK ring.
//
//redvet:noalloc gate=UserstateObserveChurn
func (st *stripe) add(h uint64, id string) int32 {
	i := st.slab.next()
	r := st.slab.at(i)
	r.hash = h
	r.id.set(id)
	r.ringIdx = int32(len(st.ring))
	st.ring = append(st.ring, resident{rec: i})
	st.index.insert(h, i)
	return i
}

// remove deletes the record at ring position p: out of the index, then
// out of the CLOCK ring and the slab, each by swap-remove. The slab's last
// record moves into the freed slot (its index entry and ring entry follow),
// and remove reports that move as slab indexes from and to (equal when the
// removed record was the last). The records trade window arrays, so the
// vacated last slot keeps the evicted user's array for the next user,
// unless it is minShrinkCap or more: the window's shrink rule would give
// that back on the next user's first tweet anyway.
//
//redvet:noalloc gate=UserstateObserveChurn
func (st *stripe) remove(p int) (from, to int32) {
	i := st.ring[p].rec
	st.index.remove(st.slab.at(i).hash, i)
	last := len(st.ring) - 1
	st.ring[p] = st.ring[last]
	st.slab.at(st.ring[p].rec).ringIdx = int32(p)
	st.ring = st.ring[:last]
	if st.hand > last {
		st.hand = 0
	}
	tail := st.slab.n - 1
	vacated := st.slab.at(tail)
	if i != tail {
		r := st.slab.at(i)
		st.index.move(vacated.hash, tail, i)
		st.ring[vacated.ringIdx].rec = i
		*r, *vacated = *vacated, *r
		copy(st.slab.verdicts(i), st.slab.verdicts(tail))
	}
	entries := vacated.entries[:0]
	if cap(entries) >= minShrinkCap {
		entries = nil
	}
	*vacated = record{entries: entries}
	clear(st.slab.verdicts(tail))
	st.slab.pop()
	return tail, i
}

// keyWidth is the longest ID or screen name a record holds in place: any
// decimal uint64 user ID, and any Twitter screen name (15 bytes).
const keyWidth = 23

// key is a copy of a string a record keeps: in place when it fits in
// keyWidth bytes, else as a cloned heap string. Setting a short value
// reuses the bytes, so it allocates nothing. Observation strings may
// alias a pooled decode arena (twitterdata.Decoder), so a record never
// keeps the caller's string.
type key struct {
	long string // the value when longer than keyWidth, else ""
	b    [keyWidth]byte
	n    uint8
}

//redvet:noalloc gate=UserstateObserveChurn
func (k *key) set(s string) {
	if len(s) > keyWidth {
		k.long, k.n = strings.Clone(s), 0
		return
	}
	k.long, k.n = "", uint8(copy(k.b[:], s))
}

//redvet:noalloc gate=UserstateObserveChurn
func (k *key) is(s string) bool {
	if k.long != "" {
		return k.long == s
	}
	return string(k.b[:k.n]) == s
}

// String returns the value as a string that outlives the record: a reused
// slot rewrites its bytes, so an in-place value is copied.
func (k *key) String() string {
	if k.long != "" {
		return k.long
	}
	return string(k.b[:k.n])
}

// names returns copies of r's ID and screen name that outlive the record,
// made in one allocation when both sit in place.
func (r *record) names() (id, screenName string) {
	if r.id.long != "" || r.screenName.long != "" {
		return r.id.String(), r.screenName.String()
	}
	var buf [2 * keyWidth]byte
	n := copy(buf[:], r.id.b[:r.id.n])
	both := string(buf[:n+copy(buf[n:], r.screenName.b[:r.screenName.n])])
	return both[:n], both[n:]
}

// index maps ID hashes to slab indexes by open addressing: linear probing
// from a home slot taken from the high bits of the hash times the golden
// ratio (the shard choice has consumed the low bits), at most 3/4 full,
// and deletion by backward shift, so there are no tombstones. A slot's
// hash is confirmed against the record's ID.
type index struct {
	slots []slot
	shift uint8 // 64 - log2(len(slots))
	n     int
}

// slot is one index entry; rec is noRec when the slot is empty.
type slot struct {
	hash uint64
	rec  int32
}

const (
	noRec       int32 = -1
	minSlots          = 16
	goldenRatio       = 0x9E3779B97F4A7C15
)

func (x *index) home(h uint64) int { return int((h * goldenRatio) >> x.shift) }

// find returns the slab index of the record in sb whose hash is h and
// whose ID is id, or noRec.
//
//redvet:noalloc gate=UserstateObserveChurn
func (x *index) find(h uint64, id string, sb *slab) int32 {
	if len(x.slots) == 0 {
		return noRec
	}
	mask := len(x.slots) - 1
	for j := x.home(h); ; j = (j + 1) & mask {
		s := x.slots[j]
		if s.rec == noRec {
			return noRec
		}
		if s.hash == h && sb.at(s.rec).id.is(id) {
			return s.rec
		}
	}
}

// insert adds slab index rec under hash h, growing the table first when
// it would pass 3/4 full.
//
//redvet:noalloc gate=UserstateObserveChurn
func (x *index) insert(h uint64, rec int32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	x.place(h, rec)
	x.n++
}

func (x *index) place(h uint64, rec int32) {
	mask := len(x.slots) - 1
	j := x.home(h)
	for x.slots[j].rec != noRec {
		j = (j + 1) & mask
	}
	x.slots[j] = slot{hash: h, rec: rec}
}

// grow doubles the table and re-places every entry.
func (x *index) grow() {
	old := x.slots
	size := max(minSlots, 2*len(old))
	x.slots = make([]slot, size)
	for j := range x.slots {
		x.slots[j].rec = noRec
	}
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.rec != noRec {
			x.place(s.hash, s.rec)
		}
	}
}

// slotOf returns the position of slab index rec's entry, which sits under
// hash h.
//
//redvet:noalloc gate=UserstateObserveChurn
func (x *index) slotOf(h uint64, rec int32) int {
	mask := len(x.slots) - 1
	j := x.home(h)
	for x.slots[j].rec != rec {
		j = (j + 1) & mask
	}
	return j
}

// move points the entry of slab index from, which sits under hash h, at
// slab index to.
//
//redvet:noalloc gate=UserstateObserveChurn
func (x *index) move(h uint64, from, to int32) {
	x.slots[x.slotOf(h, from)].rec = to
}

// remove deletes slab index rec, which sits under hash h, and shifts the
// rest of its probe chain back over the hole: an entry moves into the hole
// unless its home slot lies after the hole, so every entry stays
// reachable from its home without tombstones.
//
//redvet:noalloc gate=UserstateObserveChurn
func (x *index) remove(h uint64, rec int32) {
	mask := len(x.slots) - 1
	hole := x.slotOf(h, rec)
	for j := (hole + 1) & mask; x.slots[j].rec != noRec; j = (j + 1) & mask {
		// j's entry sits (j-home)&mask past its home; it may fill the
		// hole when the hole is no further than that back from j.
		if (j-x.home(x.slots[j].hash))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole].rec = noRec
	x.n--
}
