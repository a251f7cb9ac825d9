package userstate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
)

// Checkpoint format: the store serializes into a versioned, length-
// prefixed, checksummed frame sequence following the stream-codec
// conventions — a decoder can reject a corrupt or truncated blob before
// any state is applied.
//
//	magic   "RHUS" (4 bytes)
//	version uint16 (big-endian)
//	shards  uint16
//	frame   header (store counters)
//	frame   x shards (one per shard, in shard order)
//
// where each frame is: uint32 length, gob payload, uint64 FNV-1a
// checksum of the payload. Restore validates the magic, the version, the
// shard count (CLOCK state is only meaningful under the sharding it was
// written with), every checksum, and rejects trailing bytes.
//
// The encoding captures the complete per-shard state — records in CLOCK
// ring order, reference bits, the hand, and the shard's event clock — so
// a restored store replays the remaining stream to the exact same
// verdict sequence (sessions, escalations, suspensions, evictions) as an
// uninterrupted run.

const (
	checkpointMagic   = "RHUS"
	checkpointVersion = 1
	// maxFrameLen rejects absurd length prefixes before allocating.
	maxFrameLen = 1 << 30
)

// counterState is the header frame payload.
//
//redvet:wire
type counterState struct {
	Verdicts     int64
	Escalations  int64
	Suspensions  int64
	EvictionsCap int64
	EvictionsTTL int64
}

// recordState is the gob DTO for one user record.
//
//redvet:wire
type recordState struct {
	ID                          string
	ScreenName                  string
	Entries                     []entryState
	LastVerdict, LastEscalation int64
	Offenses                    int
	Suspended                   bool
	FirstSeen, LastSeen         int64
	Tweets, Aggressive          int64
	Sessions, Escalations       int64
	Score, Cadence              float64
	Recent                      []entryState
	RecentPos, RecentN          int
	Ref                         bool
}

//redvet:wire
type entryState struct {
	At         int64
	Aggressive bool
	Confidence float64
}

// shardState is the gob DTO for one shard, records in CLOCK ring order.
//
//redvet:wire
type shardState struct {
	Hand    int
	MaxTime int64
	Records []recordState
}

func appendFrame(buf *bytes.Buffer, payload []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	h := fnv.New64a()
	h.Write(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	buf.Write(sum[:])
}

func encodeFrame(buf *bytes.Buffer, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return err
	}
	appendFrame(buf, payload.Bytes())
	return nil
}

// MarshalBinary serializes the full store state.
func (s *Store) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[:2], checkpointVersion)
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(s.stripes)))
	buf.Write(hdr[:])

	if err := encodeFrame(&buf, s.counts); err != nil {
		return nil, fmt.Errorf("userstate: encode counters: %w", err)
	}

	for i := range s.stripes {
		sh := &s.stripes[i]
		st := shardState{Hand: sh.hand, MaxTime: sh.maxTime, Records: make([]recordState, 0, len(sh.ring))}
		for _, e := range sh.ring {
			r := sh.slab.at(e.rec)
			rs := recordState{
				ID:             r.id.String(),
				ScreenName:     r.screenName.String(),
				LastVerdict:    r.lastVerdict,
				LastEscalation: r.lastEscalation,
				Offenses:       r.offenses,
				Suspended:      e.flags&flagSuspended != 0,
				FirstSeen:      r.firstSeen,
				LastSeen:       e.lastSeen,
				Tweets:         r.tweets,
				Aggressive:     r.aggressive,
				Sessions:       r.sessions,
				Escalations:    r.escalations,
				Score:          r.score,
				Cadence:        r.cadence,
				RecentPos:      int(r.recentPos),
				RecentN:        int(r.recentN),
				Ref:            e.flags&flagRef != 0,
			}
			for _, e := range r.window() {
				rs.Entries = append(rs.Entries, entryState{At: e.at(), Aggressive: e.aggressive(), Confidence: e.confidence})
			}
			for _, b := range sh.slab.verdicts(e.rec) {
				rs.Recent = append(rs.Recent, entryState{At: b.at(), Aggressive: b.aggressive(), Confidence: b.confidence})
			}
			st.Records = append(st.Records, rs)
		}
		if err := encodeFrame(&buf, st); err != nil {
			return nil, fmt.Errorf("userstate: encode shard %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

// frameReader decodes the length-prefixed, checksummed frames.
type frameReader struct {
	data []byte
	off  int
}

func (fr *frameReader) next() ([]byte, error) {
	if fr.off+4 > len(fr.data) {
		return nil, fmt.Errorf("userstate: truncated frame header")
	}
	n := binary.BigEndian.Uint32(fr.data[fr.off:])
	fr.off += 4
	if n > maxFrameLen {
		return nil, fmt.Errorf("userstate: frame length %d exceeds limit", n)
	}
	if fr.off+int(n)+8 > len(fr.data) {
		return nil, fmt.Errorf("userstate: truncated frame payload")
	}
	payload := fr.data[fr.off : fr.off+int(n)]
	fr.off += int(n)
	want := binary.BigEndian.Uint64(fr.data[fr.off:])
	fr.off += 8
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != want {
		return nil, fmt.Errorf("userstate: frame checksum mismatch (corrupt checkpoint)")
	}
	return payload, nil
}

func decodeFrame(fr *frameReader, v any) error {
	payload, err := fr.next()
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// UnmarshalBinary restores the full store state, replacing whatever the
// store currently holds. The blob must have been written under the same
// shard count; corrupt, truncated, or trailing-garbage blobs, and shards
// that hold a user twice or a user another shard owns, are rejected
// without applying any state.
func (s *Store) UnmarshalBinary(data []byte) error {
	if len(data) < 8 || string(data[:4]) != checkpointMagic {
		return fmt.Errorf("userstate: bad checkpoint magic")
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != checkpointVersion {
		return fmt.Errorf("userstate: unsupported checkpoint version %d", v)
	}
	if n := int(binary.BigEndian.Uint16(data[6:8])); n != len(s.stripes) {
		return fmt.Errorf("userstate: checkpoint has %d shards, store has %d (eviction order would break)",
			n, len(s.stripes))
	}
	fr := &frameReader{data: data, off: 8}

	var counters counterState
	if err := decodeFrame(fr, &counters); err != nil {
		return fmt.Errorf("userstate: decode counters: %w", err)
	}
	stripes := make([]stripe, len(s.stripes))
	for i := range stripes {
		var st shardState
		if err := decodeFrame(fr, &st); err != nil {
			return fmt.Errorf("userstate: decode shard %d: %w", i, err)
		}
		if err := s.load(&stripes[i], i, &st); err != nil {
			return err
		}
	}
	if fr.off != len(data) {
		return fmt.Errorf("userstate: %d trailing bytes after checkpoint", len(data)-fr.off)
	}

	// Everything validated: apply.
	s.counts = counters
	s.stripes = stripes
	return nil
}

// load builds shard i's stripe from its checkpoint frame, records in
// CLOCK ring order, rejecting a frame whose state no store could hold.
func (s *Store) load(dst *stripe, i int, st *shardState) error {
	if st.Hand < 0 || st.Hand > len(st.Records) {
		return fmt.Errorf("userstate: shard %d hand %d out of range", i, st.Hand)
	}
	*dst = stripe{slab: slab{ringLen: s.cfg.ringSize}, hand: st.Hand, maxTime: st.MaxTime}
	for _, rs := range st.Records {
		if rs.ID == "" {
			return fmt.Errorf("userstate: shard %d has a record without a user ID", i)
		}
		h := fnv64a(rs.ID)
		if owner := int(h & s.mask); owner != i {
			return fmt.Errorf("userstate: shard %d holds user %q, which belongs to shard %d", i, rs.ID, owner)
		}
		if dst.index.find(h, rs.ID, &dst.slab) != noRec {
			return fmt.Errorf("userstate: shard %d holds user %q twice", i, rs.ID)
		}
		if len(rs.Recent) != s.cfg.ringSize || rs.RecentN < 0 || rs.RecentN > len(rs.Recent) ||
			rs.RecentPos < 0 || rs.RecentPos >= len(rs.Recent) {
			return fmt.Errorf("userstate: shard %d record %q has a malformed verdict ring", i, rs.ID)
		}
		ri := dst.add(h, rs.ID)
		r := dst.slab.at(ri)
		r.screenName.set(rs.ScreenName)
		r.lastVerdict = rs.LastVerdict
		r.lastEscalation = rs.LastEscalation
		r.offenses = rs.Offenses
		r.firstSeen = rs.FirstSeen
		r.tweets = rs.Tweets
		r.aggressive = rs.Aggressive
		r.sessions = rs.Sessions
		r.escalations = rs.Escalations
		r.score = rs.Score
		r.cadence = rs.Cadence
		r.recentPos = int32(rs.RecentPos)
		r.recentN = int32(rs.RecentN)
		r.entries = make([]entry, len(rs.Entries))
		for j, e := range rs.Entries {
			r.entries[j] = newEntry(clampNanos(e.At), e.Aggressive, e.Confidence)
		}
		r.recount()
		recent := dst.slab.verdicts(ri)
		for j, b := range rs.Recent {
			recent[j] = newEntry(clampNanos(b.At), b.Aggressive, b.Confidence)
		}
		e := &dst.ring[r.ringIdx]
		e.lastSeen = rs.LastSeen
		if rs.Suspended {
			e.flags |= flagSuspended
		}
		if rs.Ref {
			e.flags |= flagRef
		}
	}
	return nil
}

// Checkpoint writes the store state to w.
func (s *Store) Checkpoint(w io.Writer) error {
	blob, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// Restore loads a checkpoint written by Checkpoint.
func (s *Store) Restore(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("userstate: read checkpoint: %w", err)
	}
	return s.UnmarshalBinary(blob)
}
