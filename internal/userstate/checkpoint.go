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

// MarshalBinary serializes the full store state. Each shard is snapshot
// under its own lock; call it on a quiesced store (post-drain) when a
// globally consistent point is required.
func (s *Store) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[:2], checkpointVersion)
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(s.shards)))
	buf.Write(hdr[:])

	counters := counterState{
		Verdicts:     s.verdicts.Load(),
		Escalations:  s.escalations.Load(),
		Suspensions:  s.suspensions.Load(),
		EvictionsCap: s.evictionsCap.Load(),
		EvictionsTTL: s.evictionsTTL.Load(),
	}
	if err := encodeFrame(&buf, counters); err != nil {
		return nil, fmt.Errorf("userstate: encode counters: %w", err)
	}

	for i, sh := range s.shards {
		sh.mu.Lock()
		st := shardState{Hand: sh.hand, MaxTime: sh.maxTime, Records: make([]recordState, 0, len(sh.ring))}
		for _, r := range sh.ring {
			rs := recordState{
				ID:             r.id,
				ScreenName:     r.screenName,
				LastVerdict:    r.lastVerdict,
				LastEscalation: r.lastEscalation,
				Offenses:       r.offenses,
				Suspended:      r.suspended,
				FirstSeen:      r.firstSeen,
				LastSeen:       r.lastSeen,
				Tweets:         r.tweets,
				Aggressive:     r.aggressive,
				Sessions:       r.sessions,
				Escalations:    r.escalations,
				Score:          r.score,
				Cadence:        r.cadence,
				RecentPos:      r.recentPos,
				RecentN:        r.recentN,
				Ref:            r.ref,
			}
			for _, e := range r.window() {
				rs.Entries = append(rs.Entries, entryState{At: e.at(), Aggressive: e.aggressive(), Confidence: e.confidence})
			}
			for _, b := range r.recent {
				rs.Recent = append(rs.Recent, entryState{At: b.at(), Aggressive: b.aggressive(), Confidence: b.confidence})
			}
			st.Records = append(st.Records, rs)
		}
		sh.mu.Unlock()
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
// shard count; corrupt, truncated, or trailing-garbage blobs are
// rejected without applying any state.
func (s *Store) UnmarshalBinary(data []byte) error {
	if len(data) < 8 || string(data[:4]) != checkpointMagic {
		return fmt.Errorf("userstate: bad checkpoint magic")
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != checkpointVersion {
		return fmt.Errorf("userstate: unsupported checkpoint version %d", v)
	}
	if n := int(binary.BigEndian.Uint16(data[6:8])); n != len(s.shards) {
		return fmt.Errorf("userstate: checkpoint has %d shards, store has %d (eviction order would break)",
			n, len(s.shards))
	}
	fr := &frameReader{data: data, off: 8}

	var counters counterState
	if err := decodeFrame(fr, &counters); err != nil {
		return fmt.Errorf("userstate: decode counters: %w", err)
	}
	states := make([]shardState, len(s.shards))
	for i := range states {
		if err := decodeFrame(fr, &states[i]); err != nil {
			return fmt.Errorf("userstate: decode shard %d: %w", i, err)
		}
		if st := &states[i]; st.Hand < 0 || st.Hand > len(st.Records) {
			return fmt.Errorf("userstate: shard %d hand %d out of range", i, st.Hand)
		}
		for _, rs := range states[i].Records {
			if rs.ID == "" {
				return fmt.Errorf("userstate: shard %d has a record without a user ID", i)
			}
			if len(rs.Recent) != s.cfg.RingSize || rs.RecentN > len(rs.Recent) ||
				rs.RecentPos < 0 || rs.RecentPos >= len(rs.Recent) {
				return fmt.Errorf("userstate: shard %d record %q has a malformed verdict ring", i, rs.ID)
			}
		}
	}
	if fr.off != len(data) {
		return fmt.Errorf("userstate: %d trailing bytes after checkpoint", len(data)-fr.off)
	}

	// Everything validated: apply.
	s.verdicts.Store(counters.Verdicts)
	s.escalations.Store(counters.Escalations)
	s.suspensions.Store(counters.Suspensions)
	s.evictionsCap.Store(counters.EvictionsCap)
	s.evictionsTTL.Store(counters.EvictionsTTL)
	for i, sh := range s.shards {
		st := states[i]
		sh.mu.Lock()
		sh.users = make(map[string]*record, len(st.Records))
		sh.ring = make([]*record, 0, len(st.Records))
		sh.hand = st.Hand
		sh.maxTime = st.MaxTime
		sh.free = nil
		for _, rs := range st.Records {
			r := &record{
				id:             rs.ID,
				screenName:     rs.ScreenName,
				lastVerdict:    rs.LastVerdict,
				lastEscalation: rs.LastEscalation,
				offenses:       rs.Offenses,
				suspended:      rs.Suspended,
				firstSeen:      rs.FirstSeen,
				lastSeen:       rs.LastSeen,
				tweets:         rs.Tweets,
				aggressive:     rs.Aggressive,
				sessions:       rs.Sessions,
				escalations:    rs.Escalations,
				score:          rs.Score,
				cadence:        rs.Cadence,
				recent:         make([]entry, s.cfg.RingSize),
				recentPos:      rs.RecentPos,
				recentN:        rs.RecentN,
				ref:            rs.Ref,
				ringIdx:        len(sh.ring),
			}
			r.entries = make([]entry, len(rs.Entries))
			for j, e := range rs.Entries {
				r.entries[j] = newEntry(clampNanos(e.At), e.Aggressive, e.Confidence)
			}
			r.recount()
			for j, b := range rs.Recent {
				r.recent[j] = newEntry(clampNanos(b.At), b.Aggressive, b.Confidence)
			}
			sh.ring = append(sh.ring, r)
			sh.users[r.id] = r
		}
		sh.mu.Unlock()
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
