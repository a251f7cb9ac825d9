package userstate

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// naiveUser is the session window as it is defined, kept here as the
// oracle: append, then re-filter and re-sum every entry on every tweet.
// It is the code the store ran before the window went incremental.
type naiveUser struct {
	at          []int64
	aggressive  []bool
	confidence  []float64
	lastVerdict int64
}

// observe folds one timestamped, non-offense-only observation and returns
// the verdict the definition yields.
func (u *naiveUser) observe(cfg SessionConfig, id string, at int64, aggressive bool, confidence float64) *SessionVerdict {
	u.at = append(u.at, at)
	u.aggressive = append(u.aggressive, aggressive)
	u.confidence = append(u.confidence, confidence)
	cutoff := at - int64(cfg.Window)
	n := 0
	for i := range u.at {
		if u.at[i] >= cutoff {
			u.at[n], u.aggressive[n], u.confidence[n] = u.at[i], u.aggressive[i], u.confidence[i]
			n++
		}
	}
	u.at, u.aggressive, u.confidence = u.at[:n], u.aggressive[:n], u.confidence[:n]
	if n < cfg.MinTweets {
		return nil
	}
	if u.lastVerdict != 0 && at-u.lastVerdict < int64(cfg.Cooldown) {
		return nil
	}
	share, aggr, confSum := u.share()
	if share < cfg.AggressiveShare {
		return nil
	}
	u.lastVerdict = at
	return &SessionVerdict{
		UserID:          id,
		ScreenName:      id,
		WindowStart:     fromNanos(u.at[0]),
		WindowEnd:       fromNanos(at),
		Tweets:          n,
		AggressiveShare: share,
		MeanConfidence:  confSum / float64(aggr),
	}
}

func (u *naiveUser) share() (share float64, aggr int, confSum float64) {
	for i := range u.at {
		if u.aggressive[i] {
			aggr++
			confSum += u.confidence[i]
		}
	}
	return float64(aggr) / float64(len(u.at)), aggr, confSum
}

// windowFuzzConfig is a one-shard store small enough that four users keep
// it under cap and TTL pressure: evicted records' slab slots are reused
// with whatever window array they last held.
func windowFuzzConfig() Config {
	return Config{
		shards:   1,
		MaxUsers: 3,
		TTL:      64 * time.Second,
		Session:  SessionConfig{Window: 16 * time.Second, MinTweets: 3, AggressiveShare: 0.5, Cooldown: 8 * time.Second},
	}
}

// runWindowOps decodes ops, four bytes each, into observations, drives
// them through a store and the naive oracle side by side, and fails on the
// first difference. Time moves in whole seconds (a sixteenth of the
// window, an eighth of the cooldown) so window and cooldown edges are hit
// exactly, with a nanosecond of jitter to land on either side of them.
func runWindowOps(t *testing.T, ops []byte) {
	if len(ops) > 4*1024 {
		ops = ops[:4*1024] // the oracle is quadratic: bound one fuzz execution
	}
	cfg := windowFuzzConfig()
	s := New(cfg)
	session := s.cfg.Session
	oracle := map[string]*naiveUser{}
	now := base
	for i := 0; i+4 <= len(ops); i += 4 {
		b0, b1, b2, b3 := ops[i], ops[i+1], ops[i+2], ops[i+3]
		step := fmt.Sprintf("op %d", i/4)
		if b0>>6 == 3 && b3>>4 == 15 {
			// Checkpoint and carry on in a fresh store: restore must
			// rebuild the running count and the order flag. (Two gob
			// round trips: kept to one op in 64 of a random input.)
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			s = New(cfg)
			if err := s.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			again, err := s.MarshalBinary()
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("%s: checkpoint did not survive a restore byte for byte (err %v)", step, err)
			}
		}
		id := fmt.Sprintf("u%d", b0&3)
		now = now.Add(time.Duration(int8(b1))*time.Second + time.Duration(int(b3%3)-1))
		o := Observation{
			UserID:       id,
			ScreenName:   id,
			At:           now,
			Aggressive:   b0&4 != 0,
			Confidence:   float64(b2) / 255,
			Offense:      b0&8 != 0,
			SuspendAfter: 3,
			OffenseOnly:  b0&16 != 0,
		}
		if b0&32 != 0 && b3&4 != 0 {
			o.At = time.Time{}
		}

		// An absent record means the user is new or was evicted since their
		// last tweet: either way the window starts empty.
		if _, tracked := s.Lookup(id); !tracked {
			delete(oracle, id)
		}
		u := oracle[id]
		if u == nil {
			u = &naiveUser{}
			oracle[id] = u
		}
		var want *SessionVerdict
		if !o.OffenseOnly && !o.At.IsZero() {
			want = u.observe(session, id, o.At.UnixNano(), o.Aggressive, o.Confidence)
		}

		got := s.Observe(o)
		if g, w := exactOutcomeKey(Outcome{Session: got.Session}), exactOutcomeKey(Outcome{Session: want}); g != w {
			t.Fatalf("%s (%+v): session verdict\n  got  %s\n  want %s", step, o, g, w)
		}
		snap, ok := s.Lookup(id)
		if !ok {
			t.Fatalf("%s: record missing right after its observation", step)
		}
		wantShare := 0.0
		if len(u.at) > 0 {
			wantShare, _, _ = u.share()
		}
		if snap.WindowTweets != len(u.at) || math.Float64bits(snap.WindowAggressiveShare) != math.Float64bits(wantShare) {
			t.Fatalf("%s: snapshot window %d tweets share %v, oracle %d tweets share %v",
				step, snap.WindowTweets, snap.WindowAggressiveShare, len(u.at), wantShare)
		}

		// The derived state must match a recount of what the record holds.
		r := s.recordOf(id)
		win := r.window()
		aggr, oldest := 0, int64(math.MaxInt64)
		for k, e := range win {
			if e.at() != u.at[k] || e.aggressive() != u.aggressive[k] ||
				math.Float64bits(e.confidence) != math.Float64bits(u.confidence[k]) {
				t.Fatalf("%s: window entry %d is (%d %v %v), oracle (%d %v %v)", step, k,
					e.at(), e.aggressive(), e.confidence, u.at[k], u.aggressive[k], u.confidence[k])
			}
			if e.aggressive() {
				aggr++
			}
			oldest = min(oldest, e.at())
		}
		if r.disordered && r.winMin != oldest {
			t.Fatalf("%s: disordered window tracks oldest time %d, it is %d", step, r.winMin, oldest)
		}
		if int(r.winAggr) != aggr {
			t.Fatalf("%s: running aggressive count %d, recount %d", step, r.winAggr, aggr)
		}
		if !r.disordered && !sort.SliceIsSorted(win, func(a, b int) bool { return win[a].at() < win[b].at() }) {
			t.Fatalf("%s: window is out of time order but not marked disordered", step)
		}
	}
}

// windowOps builds a pseudo-random op sequence biased the way the
// interesting cases need: mostly small forward steps and aggressive
// tweets (windows fill, verdicts fire), with rarer backward steps,
// repeats, zero times, offense-only observations and checkpoints.
func windowOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		b0 := byte(rng.Intn(4))
		if rng.Intn(3) > 0 {
			b0 |= 4
		}
		if rng.Intn(5) == 0 {
			b0 |= 8
		}
		if rng.Intn(12) == 0 {
			b0 |= 16
		}
		if rng.Intn(10) == 0 {
			b0 |= 32
		}
		b3 := byte(rng.Intn(256))
		if rng.Intn(40) == 0 {
			b0, b3 = b0|0xC0, b3|0xF0
		}
		var dt int8
		switch k := rng.Intn(20); {
		case k < 12:
			dt = int8(rng.Intn(3)) // 0, 1 or 2 s forward: equal stamps included
		case k < 15:
			dt = int8(-rng.Intn(20)) // out of order, up to more than a window back
		case k < 19:
			dt = int8(rng.Intn(17)) // up to exactly one window forward
		default:
			dt = 127 // past the TTL once repeated: sweeps idle records
		}
		ops = append(ops, b0, byte(dt), byte(rng.Intn(256)), b3)
	}
	return ops
}

// FuzzSessionWindowMatchesNaive is the differential proof for the
// incremental window: arbitrary observation sequences — out-of-order,
// equal and zero timestamps, offense-only observations, window and
// cooldown edges, cap and TTL eviction with record reuse, and a
// checkpoint/restore at arbitrary points — produce the session verdicts,
// the window contents and the Lookup view the naive definition produces.
func FuzzSessionWindowMatchesNaive(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(windowOps(seed, 600))
	}
	// One user, in order, all aggressive: every cooldown edge in turn.
	f.Add(bytes.Repeat([]byte{4, 1, 200, 1}, 64))
	// A burst large enough to outgrow minShrinkCap, then silence past the
	// window so the array is given back, then a checkpoint.
	f.Add(append(bytes.Repeat([]byte{4, 0, 128, 1}, 300), 4, 17, 128, 1, 0xC4, 1, 128, 0xF1))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runWindowOps(t, ops)
	})
}

// TestWindowArrayTracksLiveWindow pins the storage rule: after a burst
// expires, the window's array is given back rather than held at its
// high-water mark, and in steady state the array stops growing.
func TestWindowArrayTracksLiveWindow(t *testing.T) {
	s := New(Config{shards: 1})
	at := base
	observe := func(step time.Duration) *record {
		at = at.Add(step)
		s.Observe(Observation{UserID: "u", At: at, Confidence: 0.5})
		return s.recordOf("u")
	}
	var r *record
	for i := 0; i < 5000; i++ {
		r = observe(time.Millisecond)
	}
	if peak := cap(r.entries); peak < 5000 {
		t.Fatalf("burst of 5000 tweets held in an array of %d", peak)
	}
	r = observe(2 * time.Hour)
	if len(r.window()) != 1 || cap(r.entries) > minShrinkCap {
		t.Fatalf("after the burst expired: %d live entries in an array of %d", len(r.window()), cap(r.entries))
	}

	// Steady state, one in and one out: the array settles.
	for i := 0; i < 3000; i++ {
		r = observe(time.Hour / 1000)
	}
	settled := cap(r.entries)
	for i := 0; i < 20000; i++ {
		r = observe(time.Hour / 1000)
	}
	if live := len(r.window()); cap(r.entries) != settled || settled > 4*live {
		t.Fatalf("steady window of %d entries: array went from %d to %d", live, settled, cap(r.entries))
	}
}

// TestObserveCostIndependentOfWindowLength is the in-process form of
// BenchmarkUserstateObserveWindow: Observe on a 10 000-entry window may
// cost at most 3x what it costs on a 10-entry one (the full re-filter it
// replaces measured about 100x). Each side is its fastest batch: the
// floor is the code's, the rest is the box's.
func TestObserveCostIndependentOfWindowLength(t *testing.T) {
	fastest := func(entries int) time.Duration {
		next := observeWindowLoop(entries)
		// Time batches, not single calls: one Observe is about the cost of
		// reading the clock twice.
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 300; round++ {
			start := time.Now()
			for k := 0; k < 64; k++ {
				next()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := fastest(10), fastest(10000)
	if ratio := float64(large) / float64(small); ratio > 3 {
		t.Fatalf("64 observations took %v on a 10000-entry window and %v on a 10-entry one (ratio %.1f), want <= 3", large, small, ratio)
	}
}

// recordOf returns the record userID's shard holds for it, or nil.
func (s *Store) recordOf(userID string) *record {
	var r *record
	s.read(userID, func(st *stripe, i int32) {
		if i != noRec {
			r = st.slab.at(i)
		}
	})
	return r
}
