package userstate

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentObserveLookupCheckpoint hammers one store from observer,
// reader, and checkpointer goroutines at once. Run with -race;
// correctness here means no data races, no panics, the cap holding, and
// every mid-flight checkpoint decoding cleanly into a fresh store.
func TestConcurrentObserveLookupCheckpoint(t *testing.T) {
	s := New(Config{
		shards:   8,
		MaxUsers: 2000,
		Session:  SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.5},
	})
	const (
		writers   = 8
		perWriter = 20000
	)
	var writersWg, auxWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < perWriter; i++ {
				at = at.Add(time.Second)
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
			}
		}(w)
	}

	// Readers: lookups, population counts, suspended listings.
	for r := 0; r < 4; r++ {
		auxWg.Add(1)
		go func(r int) {
			defer auxWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Lookup(fmt.Sprintf("w%d-u%d", i%writers, i%500))
				if i%100 == 0 {
					s.Len()
					s.SuspendedUsers()
				}
			}
		}(r)
	}

	// Checkpointer: serialize mid-flight, every blob must restore.
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Errorf("checkpoint under load: %v", err)
				return
			}
			fresh := New(s.cfg)
			if err := fresh.UnmarshalBinary(blob); err != nil {
				t.Errorf("restore of mid-flight checkpoint: %v", err)
				return
			}
		}
	}()

	writersWg.Wait()
	close(stop)
	auxWg.Wait()

	if n := s.Len(); n == 0 || n > 2000 {
		t.Fatalf("population out of bounds after concurrent load: %d", n)
	}
	// A final quiesced checkpoint must round-trip exactly.
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(s.cfg)
	if err := fresh.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != s.Len() {
		t.Fatalf("final checkpoint lost records: %d vs %d", fresh.Len(), s.Len())
	}
}

// TestLockWaitsCountOnlyContendedAcquires: an Observe that finds its
// stripe free leaves LockWaits at zero; one that has to wait for it is
// counted once, with the time it blocked.
func TestLockWaitsCountOnlyContendedAcquires(t *testing.T) {
	s := New(Config{shards: 1})
	at := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	s.Observe(obs("free", at, false, 0.9))
	if n, waited := s.LockWaits(); n != 0 || waited != 0 {
		t.Fatalf("uncontended Observe counted a wait: %d, %v", n, waited)
	}
	sh := s.shardFor(fnv64a("held"))
	// The observer may not reach the stripe before it is released; hold
	// it longer each round until one acquire has had to wait.
	for hold := time.Millisecond; hold < 10*time.Second; hold *= 2 {
		sh.mu.Lock()
		done := make(chan struct{})
		go func() {
			s.Observe(obs("held", at, false, 0.9))
			close(done)
		}()
		time.Sleep(hold)
		sh.mu.Unlock()
		<-done
		if n, waited := s.LockWaits(); n > 0 {
			if n != 1 || waited <= 0 {
				t.Fatalf("one blocked acquire recorded as %d waits, %v", n, waited)
			}
			return
		}
	}
	t.Fatal("no Observe ever waited on the held stripe")
}
