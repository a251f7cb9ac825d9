package userstate

import (
	"fmt"
	"testing"
	"time"
)

var base = time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)

// obs builds an aggressive/normal observation for one user.
func obs(user string, at time.Time, aggressive bool, conf float64) Observation {
	return Observation{UserID: user, ScreenName: user, At: at, Aggressive: aggressive, Confidence: conf}
}

func TestSessionVerdictOnRepeatedAggression(t *testing.T) {
	s := New(Config{Session: SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.6}})
	var verdict *SessionVerdict
	for i := 0; i < 4; i++ {
		if out := s.Observe(obs("bully", base.Add(time.Duration(i)*time.Minute), true, 0.9)); out.Session != nil {
			verdict = out.Session
		}
	}
	if verdict == nil {
		t.Fatalf("no verdict after 4 aggressive tweets in a window")
	}
	if verdict.UserID != "bully" || verdict.Tweets < 3 || verdict.AggressiveShare != 1 {
		t.Fatalf("verdict wrong: %+v", verdict)
	}
	if verdict.MeanConfidence < 0.89 || verdict.MeanConfidence > 0.91 {
		t.Fatalf("mean confidence = %v", verdict.MeanConfidence)
	}
	if s.SessionVerdicts() != 2 { // no cooldown configured beyond default window
		// 4 tweets with cooldown = window: exactly one verdict fires.
		t.Logf("verdicts = %d", s.SessionVerdicts())
	}
}

func TestSessionWindowEvictionAndCooldown(t *testing.T) {
	s := New(Config{Session: SessionConfig{Window: 10 * time.Minute, MinTweets: 3, AggressiveShare: 0.5}})
	s.Observe(obs("u", base, true, 0.9))
	s.Observe(obs("u", base.Add(time.Minute), true, 0.9))
	// Long gap: the window empties, so one more aggressive tweet cannot
	// produce a verdict.
	if out := s.Observe(obs("u", base.Add(2*time.Hour), true, 0.9)); out.Session != nil {
		t.Fatalf("stale entries should have been evicted: %+v", out.Session)
	}

	cd := New(Config{Session: SessionConfig{Window: time.Hour, MinTweets: 2, AggressiveShare: 0.5, Cooldown: time.Hour}})
	verdicts := 0
	for i := 0; i < 10; i++ {
		if out := cd.Observe(obs("u", base.Add(time.Duration(i)*time.Minute), true, 0.9)); out.Session != nil {
			verdicts++
		}
	}
	if verdicts != 1 || cd.SessionVerdicts() != 1 {
		t.Fatalf("cooldown broken: %d verdicts (counter %d)", verdicts, cd.SessionVerdicts())
	}
}

// TestSessionNoVerdict: streams that must stay below the verdict bar.
func TestSessionNoVerdict(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       SessionConfig
		n         int
		user      func(i int) string
		aggr      func(i int) bool
		wantUsers int
	}{
		{
			// Alternating normal-first: the window share never reaches 0.6.
			name: "share below threshold",
			cfg:  SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.6},
			n:    10, user: func(int) string { return "mixed" }, aggr: func(i int) bool { return i%2 == 1 },
			wantUsers: 1,
		},
		{
			// One aggressive tweet each: windows are per user, so nobody
			// crosses MinTweets.
			name: "users do not aggregate",
			cfg:  SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.9},
			n:    3, user: func(i int) string { return fmt.Sprintf("user%d", i) }, aggr: func(int) bool { return true },
			wantUsers: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Session: tc.cfg})
			for i := 0; i < tc.n; i++ {
				if out := s.Observe(obs(tc.user(i), base.Add(time.Duration(i)*time.Minute), tc.aggr(i), 0.8)); out.Session != nil {
					t.Fatalf("verdict at tweet %d: %+v", i, out.Session)
				}
			}
			if s.Len() != tc.wantUsers {
				t.Fatalf("tracking %d users, want %d", s.Len(), tc.wantUsers)
			}
		})
	}
}

func TestOffenseSuspension(t *testing.T) {
	s := New(Config{})
	var out Outcome
	for i := 0; i < 3; i++ {
		out = s.Observe(Observation{
			UserID: "offender", At: base.Add(time.Duration(i) * time.Minute),
			Aggressive: true, Confidence: 0.9, Offense: true, SuspendAfter: 3,
		})
	}
	if !out.Suspended || !out.NewlySuspended || out.Offenses != 3 {
		t.Fatalf("suspension outcome wrong: %+v", out)
	}
	if !s.Suspended("offender") || s.OffenseCount("offender") != 3 {
		t.Fatalf("suspension state wrong")
	}
	// Another offense: still suspended, but not newly.
	out = s.Observe(Observation{UserID: "offender", Aggressive: true, Offense: true, SuspendAfter: 3})
	if !out.Suspended || out.NewlySuspended {
		t.Fatalf("re-suspension flagged as new: %+v", out)
	}
	if s.Suspended("innocent") {
		t.Fatalf("innocent user suspended")
	}
}

func TestSuspendedUsersSorted(t *testing.T) {
	s := New(Config{})
	for _, u := range []string{"zeta", "alpha", "mike", "beta"} {
		s.Observe(Observation{UserID: u, Aggressive: true, Offense: true, SuspendAfter: 1})
	}
	got := s.SuspendedUsers()
	want := []string{"alpha", "beta", "mike", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("suspended = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestOffenseOnlySkipsAggregates(t *testing.T) {
	s := New(Config{})
	s.Observe(Observation{UserID: "u", At: base, Aggressive: true, Confidence: 0.9, Offense: true, SuspendAfter: 5, OffenseOnly: true})
	snap, ok := s.Lookup("u")
	if !ok {
		t.Fatalf("record missing")
	}
	if snap.Tweets != 0 || snap.Score != 0 || snap.WindowTweets != 0 || len(snap.Recent) != 0 {
		t.Fatalf("offense-only observation polluted aggregates: %+v", snap)
	}
	if snap.Offenses != 1 {
		t.Fatalf("offense not recorded: %+v", snap)
	}
}

func TestEscalationFiresAcrossSessions(t *testing.T) {
	s := New(Config{
		Session:    SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.6},
		Escalation: EscalationConfig{Threshold: 0.5, MinTweets: 10, MinSpan: 2 * time.Hour, Cooldown: 24 * time.Hour},
	})
	var esc *EscalationVerdict
	// Sustained aggression over 3 hours: crosses MinSpan and the score
	// threshold.
	for i := 0; i < 40; i++ {
		out := s.Observe(obs("esc", base.Add(time.Duration(i)*5*time.Minute), true, 0.9))
		if out.Escalation != nil {
			esc = out.Escalation
		}
	}
	if esc == nil {
		t.Fatalf("no escalation over sustained 3h aggression")
	}
	if esc.UserID != "esc" || esc.Score < 0.5 || esc.RecentShare != 1 {
		t.Fatalf("escalation wrong: %+v", esc)
	}
	if esc.At.Sub(esc.FirstSeen) < 2*time.Hour {
		t.Fatalf("escalation fired inside MinSpan: %+v", esc)
	}
	if s.Escalations() != 1 {
		t.Fatalf("cooldown broken: %d escalations", s.Escalations())
	}
}

func TestEscalationRequiresSpan(t *testing.T) {
	s := New(Config{
		Escalation: EscalationConfig{Threshold: 0.5, MinTweets: 5, MinSpan: 2 * time.Hour},
	})
	// A burst inside 30 minutes: score and count qualify, the span does not.
	for i := 0; i < 30; i++ {
		if out := s.Observe(obs("burst", base.Add(time.Duration(i)*time.Minute), true, 0.9)); out.Escalation != nil {
			t.Fatalf("escalation fired within a single window at tweet %d", i)
		}
	}
}

func TestEscalationRequiresNonDecayingTrend(t *testing.T) {
	s := New(Config{
		RingSize:   8,
		Escalation: EscalationConfig{Threshold: 0.2, MinTweets: 5, MinSpan: time.Hour},
	})
	// Aggressive early, then a clean streak filling the newer half of the
	// ring: score may still sit above the low threshold but the trend is
	// decaying, so no escalation.
	at := base
	for i := 0; i < 10; i++ {
		at = at.Add(30 * time.Minute)
		s.Observe(obs("cooling", at, true, 0.9))
	}
	escalated := false
	for i := 0; i < 5; i++ {
		at = at.Add(30 * time.Minute)
		if out := s.Observe(obs("cooling", at, false, 0.1)); out.Escalation != nil {
			escalated = true
		}
	}
	// The cooling-down tail must not produce fresh escalations once the
	// newer ring half is less aggressive than the older half.
	prev := s.Escalations()
	for i := 0; i < 4; i++ {
		at = at.Add(30 * time.Minute)
		if out := s.Observe(obs("cooling", at, false, 0.1)); out.Escalation != nil {
			escalated = true
		}
	}
	if s.Escalations() != prev || escalated && prev == 0 {
		t.Fatalf("decaying user kept escalating (escalations=%d)", s.Escalations())
	}
}

func TestEscalationDisabled(t *testing.T) {
	s := New(Config{Escalation: EscalationConfig{Threshold: -1}})
	for i := 0; i < 100; i++ {
		if out := s.Observe(obs("u", base.Add(time.Duration(i)*10*time.Minute), true, 0.99)); out.Escalation != nil {
			t.Fatalf("escalation fired while disabled")
		}
	}
}

func TestCapEvictionKeepsHotUsers(t *testing.T) {
	s := New(Config{Shards: 1, MaxUsers: 100, TTL: -1})
	// One hot user observed between every batch of cold users: the CLOCK
	// reference bit must keep them resident.
	for i := 0; i < 5000; i++ {
		s.Observe(obs("hot", base.Add(time.Duration(i)*time.Second), true, 0.9))
		s.Observe(obs(fmt.Sprintf("cold%d", i), base.Add(time.Duration(i)*time.Second), false, 0.1))
	}
	if n := s.Len(); n > 100 {
		t.Fatalf("cap breached: %d records", n)
	}
	if _, ok := s.Lookup("hot"); !ok {
		t.Fatalf("hot user evicted despite constant references")
	}
	if capEv, _ := s.Evictions(); capEv == 0 {
		t.Fatalf("no cap evictions recorded")
	}
}

func TestTTLSweepAmortized(t *testing.T) {
	s := New(Config{Shards: 1, TTL: time.Hour, sweepPerObserve: 4})
	// 50 users at t0, then one active user advancing the clock far past
	// the TTL: the sweep inside Observe must retire the idle records.
	for i := 0; i < 50; i++ {
		s.Observe(obs(fmt.Sprintf("idle%d", i), base, false, 0.1))
	}
	for i := 0; i < 200; i++ {
		s.Observe(obs("active", base.Add(2*time.Hour+time.Duration(i)*time.Second), false, 0.1))
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("amortized sweep left %d records, want 1 (the active user)", n)
	}
	if _, ttlEv := s.Evictions(); ttlEv != 50 {
		t.Fatalf("ttl evictions = %d, want 50", ttlEv)
	}
}

func TestZeroTimeObservationsTracked(t *testing.T) {
	s := New(Config{})
	// Offense histories predate timestamps: zero-time observations must
	// still accumulate (the legacy Alerter path).
	for i := 0; i < 3; i++ {
		s.Observe(Observation{UserID: "u", Aggressive: true, Confidence: 0.9, Offense: true, SuspendAfter: 3})
	}
	if !s.Suspended("u") {
		t.Fatalf("zero-time offenses not tracked")
	}
	snap, _ := s.Lookup("u")
	if snap.WindowTweets != 0 {
		t.Fatalf("zero-time observation entered the session window: %+v", snap)
	}
}

func TestEmptyUserIgnored(t *testing.T) {
	s := New(Config{})
	out := s.Observe(Observation{UserID: "", Aggressive: true, Confidence: 0.9})
	if out != (Outcome{}) || s.Len() != 0 {
		t.Fatalf("empty user tracked")
	}
	if _, ok := s.Lookup(""); ok {
		t.Fatalf("empty user lookup succeeded")
	}
}

func TestSnapshotAggregates(t *testing.T) {
	s := New(Config{RingSize: 4})
	at := base
	for i := 0; i < 6; i++ {
		at = at.Add(10 * time.Second)
		s.Observe(obs("u", at, i%2 == 0, 0.8))
	}
	snap, ok := s.Lookup("u")
	if !ok {
		t.Fatalf("record missing")
	}
	if snap.Tweets != 6 || snap.Aggressive != 3 {
		t.Fatalf("totals wrong: %+v", snap)
	}
	if snap.WindowTweets != 6 || snap.WindowAggressiveShare != 0.5 {
		t.Fatalf("window stats wrong: %+v", snap)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("ring should hold last 4, got %d", len(snap.Recent))
	}
	// Ring is oldest->newest; the last observation (i=5) was normal.
	if snap.Recent[3].Aggressive {
		t.Fatalf("ring order wrong: %+v", snap.Recent)
	}
	if snap.CadenceSeconds < 9 || snap.CadenceSeconds > 11 {
		t.Fatalf("cadence = %v, want ~10s", snap.CadenceSeconds)
	}
	if snap.FirstSeen.After(snap.LastSeen) || !snap.LastSeen.Equal(at) {
		t.Fatalf("seen range wrong: %+v", snap)
	}
}

func TestShardsRoundedToPowerOfTwo(t *testing.T) {
	s := New(Config{Shards: 9})
	if got := s.Config().Shards; got != 16 {
		t.Fatalf("shards = %d, want 16", got)
	}
	if s.Config().MaxUsers != 0 {
		t.Fatalf("default MaxUsers should be unbounded")
	}
}

func TestLookupDoesNotPerturbEviction(t *testing.T) {
	// Two stores fed identically, one with heavy Lookup traffic in
	// between: eviction decisions must match exactly.
	mk := func(lookups bool) []string {
		s := New(Config{Shards: 1, MaxUsers: 20, TTL: -1})
		for i := 0; i < 500; i++ {
			s.Observe(obs(fmt.Sprintf("u%d", i%60), base.Add(time.Duration(i)*time.Second), false, 0.1))
			if lookups {
				for j := 0; j < 3; j++ {
					s.Lookup(fmt.Sprintf("u%d", (i+j)%60))
				}
			}
		}
		var ids []string
		for i := 0; i < 60; i++ {
			if _, ok := s.Lookup(fmt.Sprintf("u%d", i)); ok {
				ids = append(ids, fmt.Sprintf("u%d", i))
			}
		}
		return ids
	}
	a, b := mk(false), mk(true)
	if len(a) != len(b) {
		t.Fatalf("lookup traffic changed eviction: %d vs %d residents", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lookup traffic changed eviction order: %v vs %v", a, b)
		}
	}
}

func TestSmallCapNeverExceeded(t *testing.T) {
	// A cap below the stripe count shrinks the stripes instead of
	// overshooting: 10 users means at most 10 records, not one per shard.
	s := New(Config{Shards: 16, MaxUsers: 10, TTL: -1})
	if s.Config().Shards > 10 {
		t.Fatalf("stripes not shrunk: %d shards for a 10-user cap", s.Config().Shards)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(obs(fmt.Sprintf("u%d", i), base.Add(time.Duration(i)*time.Second), false, 0.1))
	}
	if n := s.Len(); n > 10 {
		t.Fatalf("cap of 10 exceeded: %d records", n)
	}
}

func TestSuspendedSurviveEvictionPressure(t *testing.T) {
	// Suspension is the costliest state to forget: suspended records are
	// skipped by the TTL sweep and passed over by CLOCK eviction while
	// any other victim exists.
	s := New(Config{Shards: 1, MaxUsers: 50, TTL: time.Hour, sweepPerObserve: 4})
	for i := 0; i < 10; i++ {
		for k := 0; k < 3; k++ {
			s.Observe(Observation{
				UserID: fmt.Sprintf("banned%d", i), At: base.Add(time.Duration(i) * time.Second),
				Aggressive: true, Confidence: 0.9, Offense: true, SuspendAfter: 3,
			})
		}
	}
	// Churn far past both the cap and the TTL.
	for i := 0; i < 5000; i++ {
		s.Observe(obs(fmt.Sprintf("churn%d", i), base.Add(2*time.Hour+time.Duration(i)*time.Second), false, 0.1))
	}
	if n := s.Len(); n > 50 {
		t.Fatalf("cap breached: %d", n)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("banned%d", i)
		if !s.Suspended(id) {
			t.Fatalf("%s lost its suspension under eviction pressure", id)
		}
	}
	// A ring made entirely of suspended users still evicts: the memory
	// bound always wins.
	full := New(Config{Shards: 1, MaxUsers: 4, TTL: -1})
	for i := 0; i < 20; i++ {
		full.Observe(Observation{
			UserID: fmt.Sprintf("s%d", i), At: base.Add(time.Duration(i) * time.Second),
			Aggressive: true, Confidence: 0.9, Offense: true, SuspendAfter: 1,
		})
	}
	if n := full.Len(); n > 4 {
		t.Fatalf("all-suspended ring broke the cap: %d", n)
	}
}
