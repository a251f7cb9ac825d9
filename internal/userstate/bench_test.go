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
	s := New(Config{Shards: 64, MaxUsers: 100_000})
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
	s := New(Config{Shards: 64, MaxUsers: 100_000})
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
	s := New(Config{Shards: 4})
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

// BenchmarkUserstateLookup measures read-side snapshots against a
// populated store.
func BenchmarkUserstateLookup(b *testing.B) {
	s := New(Config{Shards: 64})
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
	s := New(Config{Shards: 1})
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
