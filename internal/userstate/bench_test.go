package userstate

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// benchIDs pre-renders distinct user IDs so the hot loop measures
// Observe, not fmt.
func benchIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%07d", i)
	}
	return ids
}

// BenchmarkUserstateObserve measures Observe over one million distinct
// users with a 100k cap — the store's steady state is constant eviction
// pressure. Run with -cpu 16 (the bench smoke pins GOMAXPROCS) for the
// contended figure; b.RunParallel spreads the users across goroutines so
// every shard stripe stays busy.
func BenchmarkUserstateObserve(b *testing.B) {
	s := New(Config{shards: 64, MaxUsers: 100_000})
	ids := benchIDs(1_000_000)
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			s.Observe(Observation{
				UserID:     ids[int(i)%len(ids)],
				At:         time.Unix(0, start+i*int64(50*time.Millisecond)),
				Aggressive: i%3 == 0,
				Confidence: 0.8,
			})
		}
	})
}

// BenchmarkUserstateObserveHot measures the repeat-offender path: a
// small working set of users that always hit existing records (session
// window + EWMA updates, no inserts or evictions).
func BenchmarkUserstateObserveHot(b *testing.B) {
	s := New(Config{shards: 64, MaxUsers: 100_000})
	ids := benchIDs(4096)
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			s.Observe(Observation{
				UserID:     ids[int(i)%len(ids)],
				At:         time.Unix(0, start+i*int64(time.Millisecond)),
				Aggressive: i%3 == 0,
				Confidence: 0.8,
			})
		}
	})
}

// BenchmarkUserstateObserveChurn measures the store when every tweet
// comes from a user it has not seen: one goroutine, a new user and screen
// name per observation (an ID recurs only after 45 days of event time),
// the default 24 h TTL, and event time advancing a minute per
// observation, so the sweep retires one idle record for each one inserted
// and the store holds about a day of users (1 440).
func BenchmarkUserstateObserveChurn(b *testing.B) {
	s := New(Config{shards: 16})
	ids := benchIDs(1 << 16)
	names := make([]string, len(ids))
	for i := range names {
		names[i] = fmt.Sprintf("name_%07d", i)
	}
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ids)
		s.Observe(Observation{
			UserID:     ids[k],
			ScreenName: names[k],
			At:         time.Unix(0, start+int64(i)*int64(time.Minute)),
			Aggressive: i%3 == 0,
			Confidence: 0.8,
		})
	}
}

// TestObserveResidentUserZeroAlloc is the UserstateObserveHot gate:
// folding an observation into a user who already has a record — session
// window slide, running counts, EWMA, and for the aggressive third an
// alert's offense through ObserveAlert — allocates nothing as long as no
// verdict fires. Each user posts every 16 minutes, so windows stay a few
// entries long and their storage stops growing during the warm-up.
func TestObserveResidentUserZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	s := New(Config{shards: 4})
	ids := benchIDs(16)
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	i := 0
	observe := func() {
		o := Observation{
			UserID:       ids[i%len(ids)],
			At:           start.Add(time.Duration(i) * time.Minute),
			Aggressive:   i%3 == 0,
			Confidence:   0.8,
			SuspendAfter: 5,
		}
		var out Outcome
		if o.Aggressive {
			out = s.ObserveAlert(o)
		} else {
			out = s.Observe(o)
		}
		if out.Session != nil || out.Escalation != nil {
			t.Fatalf("observation %d drew a verdict; the gate measures the verdict-free fold", i)
		}
		i++
	}
	for i < 2000 {
		observe()
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Fatalf("Observe allocates %v per resident-user observation, want 0", allocs)
	}
}

// TestObserveChurnZeroAlloc is the UserstateObserveChurn gate: once a
// store has reached its size, observing a user it has never seen — the
// index miss, the insert into a reused slab slot, and the eviction that
// makes room — allocates nothing, for Observe and for ObserveAlert. One
// store evicts by TTL (event time advances an hour per observation), the
// other at its MaxUsers cap with the sweep off. Each call is measured on
// its own, so one allocation per call cannot hide in an average.
func TestObserveChurnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		step time.Duration
	}{
		{name: "ttl", cfg: Config{shards: 4}, step: time.Hour},
		{name: "cap", cfg: Config{shards: 4, MaxUsers: 64, TTL: -1}, step: time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			ids := benchIDs(1 << 14)
			start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
			obs := make([]Observation, len(ids))
			for k, id := range ids {
				obs[k] = Observation{
					UserID:       id,
					ScreenName:   "name_" + id,
					At:           start.Add(time.Duration(k) * tc.step),
					Aggressive:   true,
					Confidence:   0.8,
					SuspendAfter: 3,
				}
			}
			i := 0
			observe := func() { s.Observe(obs[i]); i++ }
			alert := func() { s.ObserveAlert(obs[i]); i++ }
			for i < 4096 {
				observe()
				alert()
			}
			capBefore, ttlBefore := s.Evictions()
			if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
				t.Errorf("Observe of a new user allocates %v, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(1000, alert); allocs != 0 {
				t.Errorf("ObserveAlert of a new user allocates %v, want 0", allocs)
			}
			capEv, ttlEv := s.Evictions()
			if evicted := capEv - capBefore + ttlEv - ttlBefore; evicted < 1000 {
				t.Fatalf("%d evictions over 2002 new users: the gate did not measure churn", evicted)
			}
		})
	}
}

// BenchmarkUserstateLookup measures read-side snapshots against a
// populated store.
func BenchmarkUserstateLookup(b *testing.B) {
	s := New(Config{shards: 64})
	ids := benchIDs(100_000)
	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	for i, id := range ids {
		s.Observe(Observation{UserID: id, At: at.Add(time.Duration(i) * time.Millisecond), Aggressive: i%2 == 0, Confidence: 0.8})
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			s.Lookup(ids[int(i)%len(ids)])
		}
	})
}

// observeWindowLoop drives one user whose session window holds `entries`
// tweets in steady state (one in, one out per observation) and returns the
// function that performs the next observation. The window length is the
// only thing that differs between sizes, so the per-observation cost
// ratio large/small is the window's scaling law.
func observeWindowLoop(entries int) func() {
	s := New(Config{shards: 1})
	gap := int64(s.cfg.Session.Window) / int64(entries)
	start := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	i := int64(0)
	next := func() {
		i++
		// Mostly normal tweets: the share test fails, so this is the path
		// every non-verdict observation takes.
		s.Observe(Observation{UserID: "u", At: time.Unix(0, start+i*gap), Aggressive: i%5 == 0, Confidence: 0.8})
	}
	for k := 0; k < 2*entries; k++ {
		next()
	}
	return next
}

// BenchmarkUserstateObserveWindow is the scaling guard for the session
// window: the cost of one Observe must not depend on how many tweets the
// user's window already holds.
func BenchmarkUserstateObserveWindow(b *testing.B) {
	for _, entries := range []int{10, 10000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			next := observeWindowLoop(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
		})
	}
}
