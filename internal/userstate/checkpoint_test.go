package userstate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// streamConfig is a small, eviction-heavy store configuration used by
// the equivalence tests: 4 shards, tight cap, short TTL, escalation on.
func streamConfig() Config {
	return Config{
		shards:   4,
		MaxUsers: 400,
		TTL:      6 * time.Hour,
		ringSize: 8,
		Session:  SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.5},
		Escalation: EscalationConfig{
			Threshold: 0.4, MinTweets: 6, MinSpan: 90 * time.Minute, Cooldown: time.Hour,
		},
	}
}

// synthStream yields n deterministic observations over many users with
// mixed aggression, offenses, and timestamps.
func synthStream(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, n)
	at := base
	for i := range out {
		at = at.Add(time.Duration(rng.Intn(20)+1) * time.Second)
		user := fmt.Sprintf("user%d", rng.Intn(n/10+2))
		aggressive := rng.Float64() < 0.4
		o := Observation{
			UserID:     user,
			ScreenName: user,
			At:         at,
			Aggressive: aggressive,
			Confidence: 0.5 + rng.Float64()/2,
		}
		if aggressive && rng.Float64() < 0.5 {
			o.Offense = true
			o.SuspendAfter = 5
		}
		out[i] = o
	}
	return out
}

// outcomeKey flattens an Outcome for comparison.
func outcomeKey(out Outcome) string {
	k := fmt.Sprintf("off=%d susp=%v new=%v", out.Offenses, out.Suspended, out.NewlySuspended)
	if out.Session != nil {
		k += fmt.Sprintf(" S{%s %d %.6f %.6f}", out.Session.UserID, out.Session.Tweets,
			out.Session.AggressiveShare, out.Session.MeanConfidence)
	}
	if out.Escalation != nil {
		k += fmt.Sprintf(" E{%s %.9f %d %.6f}", out.Escalation.UserID, out.Escalation.Score,
			out.Escalation.Tweets, out.Escalation.RecentShare)
	}
	return k
}

// TestCheckpointReplayEquivalence is the core guarantee: checkpoint the
// store mid-stream, restore into a fresh store, replay the remaining
// observations — every outcome (session verdicts, escalations, offense
// counts, suspensions) and the final population must match the
// uninterrupted run exactly, evictions included.
func TestCheckpointReplayEquivalence(t *testing.T) {
	stream := synthStream(7, 30000)
	cut := len(stream) / 2

	full := New(streamConfig())
	for _, o := range stream[:cut] {
		full.Observe(o)
	}

	blob, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(streamConfig())
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != full.Len() {
		t.Fatalf("restored %d records, original %d", restored.Len(), full.Len())
	}

	for i, o := range stream[cut:] {
		a := full.Observe(o)
		b := restored.Observe(o)
		if outcomeKey(a) != outcomeKey(b) {
			t.Fatalf("outcome %d diverged:\n  full:     %s\n  restored: %s", i, outcomeKey(a), outcomeKey(b))
		}
	}
	if full.Len() != restored.Len() {
		t.Fatalf("final population diverged: %d vs %d", full.Len(), restored.Len())
	}
	if full.SessionVerdicts() != restored.SessionVerdicts() ||
		full.Escalations() != restored.Escalations() ||
		full.Suspensions() != restored.Suspensions() {
		t.Fatalf("counters diverged: (%d,%d,%d) vs (%d,%d,%d)",
			full.SessionVerdicts(), full.Escalations(), full.Suspensions(),
			restored.SessionVerdicts(), restored.Escalations(), restored.Suspensions())
	}
	aCap, aTTL := full.Evictions()
	bCap, bTTL := restored.Evictions()
	if aCap != bCap || aTTL != bTTL {
		t.Fatalf("eviction counters diverged: (%d,%d) vs (%d,%d)", aCap, aTTL, bCap, bTTL)
	}
	aSusp, bSusp := full.SuspendedUsers(), restored.SuspendedUsers()
	if len(aSusp) != len(bSusp) {
		t.Fatalf("suspended sets diverged: %v vs %v", aSusp, bSusp)
	}
	for i := range aSusp {
		if aSusp[i] != bSusp[i] {
			t.Fatalf("suspended sets diverged at %d: %v vs %v", i, aSusp, bSusp)
		}
	}
	// Spot-check full record state, ring contents included.
	for _, id := range aSusp {
		sa, _ := full.Lookup(id)
		sb, _ := restored.Lookup(id)
		if fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
			t.Fatalf("snapshot of %s diverged:\n%+v\n%+v", id, sa, sb)
		}
	}
}

func TestCheckpointRoundTripViaWriter(t *testing.T) {
	s := New(streamConfig())
	for _, o := range synthStream(11, 5000) {
		s.Observe(o)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(streamConfig())
	if err := r.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() || r.SessionVerdicts() != s.SessionVerdicts() {
		t.Fatalf("writer round trip lost state")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	s := New(streamConfig())
	for _, o := range synthStream(13, 2000) {
		s.Observe(o)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Store { return New(streamConfig()) }

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), blob...)
		b[0] = 'X'
		if err := fresh().UnmarshalBinary(b); err == nil {
			t.Fatalf("bad magic accepted")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		b := append([]byte(nil), blob...)
		b[5] = 99
		if err := fresh().UnmarshalBinary(b); err == nil {
			t.Fatalf("unknown version accepted")
		}
	})
	t.Run("shard mismatch", func(t *testing.T) {
		other := New(Config{shards: 8})
		if err := other.UnmarshalBinary(blob); err == nil {
			t.Fatalf("shard-count mismatch accepted")
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		for _, pos := range []int{20, len(blob) / 2, len(blob) - 5} {
			b := append([]byte(nil), blob...)
			b[pos] ^= 0x40
			if err := fresh().UnmarshalBinary(b); err == nil {
				t.Fatalf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{3, 7, 12, len(blob) / 2, len(blob) - 1} {
			if err := fresh().UnmarshalBinary(blob[:n]); err == nil {
				t.Fatalf("truncation at %d accepted", n)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		b := append(append([]byte(nil), blob...), 0xde, 0xad)
		if err := fresh().UnmarshalBinary(b); err == nil {
			t.Fatalf("trailing bytes accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := fresh().UnmarshalBinary(nil); err == nil {
			t.Fatalf("empty blob accepted")
		}
	})

	// The pristine blob still restores after all the rejected attempts.
	if err := fresh().UnmarshalBinary(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

// TestCheckpointRejectsImpossibleShards: a shard frame that holds one user
// twice, or a user whose ID routes to another shard, cannot come from a
// store. Restoring the first left two ring entries under one index entry
// (a later eviction of one copy unlinked the other); restoring the second
// left a record no lookup reaches. Both are rejected before any state is
// applied, while the same frames without the defect restore.
func TestCheckpointRejectsImpossibleShards(t *testing.T) {
	blob := func(shards ...shardState) []byte {
		var buf bytes.Buffer
		buf.WriteString(checkpointMagic)
		var hdr [4]byte
		binary.BigEndian.PutUint16(hdr[:2], checkpointVersion)
		binary.BigEndian.PutUint16(hdr[2:], uint16(len(shards)))
		buf.Write(hdr[:])
		if err := encodeFrame(&buf, counterState{}); err != nil {
			t.Fatal(err)
		}
		for _, st := range shards {
			if err := encodeFrame(&buf, st); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	rec := func(id string) recordState {
		return recordState{ID: id, Tweets: 1, Recent: make([]entryState, 16)}
	}
	var owned [2]string // a user ID each shard of a two-shard store owns
	for i := 0; owned[0] == "" || owned[1] == ""; i++ {
		if id := fmt.Sprintf("user%d", i); owned[fnv64a(id)&1] == "" {
			owned[fnv64a(id)&1] = id
		}
	}

	for _, tc := range []struct {
		name      string
		shards    int
		bad, good []shardState
	}{
		{
			name:   "user twice in one shard",
			shards: 1,
			bad:    []shardState{{Records: []recordState{rec("a"), rec("a")}}},
			good:   []shardState{{Records: []recordState{rec("a"), rec("b")}}},
		},
		{
			name:   "user in another shard",
			shards: 2,
			bad:    []shardState{{Records: []recordState{rec(owned[1])}}, {}},
			good:   []shardState{{}, {Records: []recordState{rec(owned[1])}}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{shards: tc.shards})
			s.Observe(obs("resident", base, true, 0.9))
			if err := s.UnmarshalBinary(blob(tc.bad...)); err == nil {
				t.Fatalf("restored a shard that holds an impossible record (Len %d)", s.Len())
			}
			if _, ok := s.Lookup("resident"); !ok || s.Len() != 1 {
				t.Fatalf("rejected restore changed the store: Len %d", s.Len())
			}
			if err := s.UnmarshalBinary(blob(tc.good...)); err != nil {
				t.Fatalf("the same frames without the defect: %v", err)
			}
		})
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	s := New(Config{})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{})
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("empty store restored %d records", r.Len())
	}
}
