package userstate

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestInterleavedObserveLookupCheckpoint interleaves eight observers'
// streams with lookups, population counts, suspended listings and
// checkpoints on one store, the way a pipeline's lock orders its
// processing goroutine and its readers. The cap holds at every step, and
// every mid-stream checkpoint decodes into a fresh store that encodes back
// to the same bytes.
func TestInterleavedObserveLookupCheckpoint(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
		maxUsers  = 2000
	)
	s := New(Config{
		shards:   8,
		MaxUsers: maxUsers,
		Session:  SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.5},
	})
	checkpoint := func(tag string) {
		t.Helper()
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tag, err)
		}
		fresh := New(s.cfg)
		if err := fresh.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: restore: %v", tag, err)
		}
		again, err := fresh.MarshalBinary()
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("%s: restored store encodes differently (err %v)", tag, err)
		}
		if fresh.Len() != s.Len() {
			t.Fatalf("%s: checkpoint lost records: %d vs %d", tag, fresh.Len(), s.Len())
		}
	}

	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < perWriter; i++ {
		at = at.Add(time.Second)
		for w := 0; w < writers; w++ {
			o := Observation{
				UserID:     fmt.Sprintf("w%d-u%d", w, i%500),
				At:         at,
				Aggressive: i%2 == 0,
				Confidence: 0.9,
			}
			if i%10 == 0 {
				o.Offense = true
				o.SuspendAfter = 5
			}
			s.Observe(o)
			s.Lookup(fmt.Sprintf("w%d-u%d", (i+w)%writers, (i*7+w)%500))
		}
		if i%100 == 0 {
			if n := s.Len(); n > maxUsers {
				t.Fatalf("after %d rounds: %d records over the %d cap", i, n, maxUsers)
			}
			s.SuspendedUsers()
		}
		if i%1000 == 999 {
			checkpoint(fmt.Sprintf("round %d", i))
		}
	}
	if n := s.Len(); n == 0 || n > maxUsers {
		t.Fatalf("population out of bounds after the stream: %d", n)
	}
	checkpoint("final")
}
