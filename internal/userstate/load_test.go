package userstate

import (
	"fmt"
	"testing"
	"time"

	"redhanded/internal/twitterdata"
)

// TestBoundedUnderMillionUsers replays tweets from one million distinct
// synthetic users through a store capped at 100k records: the cap must
// hold throughout (no unbounded map growth), evictions must be observed,
// and the hot users that keep tweeting must survive.
func TestBoundedUnderMillionUsers(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	const maxUsers = 100_000

	s := New(Config{
		shards:   64,
		MaxUsers: maxUsers,
		TTL:      24 * time.Hour,
	})

	// A pool of generator tweets provides realistic payloads; each
	// observation rewrites the author so every tweet comes from a distinct
	// user, except a handful of hot users revisited throughout.
	gen := twitterdata.NewGenerator(99, 10)
	pool := make([]twitterdata.Tweet, 512)
	for i := range pool {
		pool[i] = gen.Tweet(i%3, i%10)
	}
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

	checkEvery := total / 16
	for i := 0; i < total; i++ {
		tw := &pool[i%len(pool)]
		user := fmt.Sprintf("u%07d", i)
		if i%1000 == 999 {
			user = fmt.Sprintf("hot%d", i%7)
		}
		s.Observe(Observation{
			UserID:     user,
			ScreenName: tw.User.ScreenName,
			At:         start.Add(time.Duration(i) * 50 * time.Millisecond),
			Aggressive: i%3 != 0,
			Confidence: 0.8,
		})
		if i%checkEvery == 0 {
			if n := s.Len(); n > maxUsers {
				t.Fatalf("cap breached mid-replay at %d observations: %d records", i, n)
			}
		}
	}

	if n := s.Len(); n > maxUsers {
		t.Fatalf("cap breached: %d records > %d", n, maxUsers)
	}
	capEv, ttlEv := s.Evictions()
	if capEv == 0 {
		t.Fatalf("1M distinct users produced no cap evictions")
	}
	t.Logf("%d observations: %d resident, %d cap evictions, %d ttl evictions",
		total, s.Len(), capEv, ttlEv)
	for i := 0; i < 7; i++ {
		if _, ok := s.Lookup(fmt.Sprintf("hot%d", i)); !ok {
			t.Errorf("hot%d evicted despite periodic activity", i)
		}
	}
}
