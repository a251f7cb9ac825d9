package userstate

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// alertPairConfig is a store small enough that a short history reaches
// every edge ObserveAlert has to reproduce: two shards of four records
// (a ninth user evicts one on insert), a ten-minute TTL, windows and
// escalation spans of a few minutes, and a suspension at the third alert.
func alertPairConfig(sweep int) Config {
	return Config{
		Shards:          2,
		MaxUsers:        8,
		TTL:             10 * time.Minute,
		RingSize:        8,
		Session:         SessionConfig{Window: 5 * time.Minute, MinTweets: 3, AggressiveShare: 0.5},
		Escalation:      EscalationConfig{Threshold: 0.4, MinTweets: 4, MinSpan: 6 * time.Minute, Cooldown: 5 * time.Minute},
		sweepPerObserve: sweep,
	}
}

const alertSuspendAfter = 3

// runObserveAlertPair decodes ops, three bytes each, into a history shaped
// like goldenStream — a few prolific accounts among many occasional ones,
// backdated, repeated and missing timestamps — and drives it through two
// stores: one folds each alerting tweet with ObserveAlert, its twin with
// Observe followed by an offense-only Observe, as Alerter.Consider does.
// Every outcome and, at the end, the checkpoint bytes and counters must be
// equal. It returns the ObserveAlert store.
//
//	b0  bit 7 clear: "prolific<b0&3>"; set: "user<b0&63>"
//	b1  bit 7 clear: the clock advances (b1&127)*10 s; set: the tweet is
//	    stamped (b1&127)*5 s before the clock, which stays put
//	b2  bit 0 aggressive, bit 1 alert, bit 2 no timestamp, bit 3 the
//	    previous tweet's timestamp, bit 4 a full observation that carries
//	    its own Offense (non-alerting tweets), bits 5-7 confidence in sevenths
func runObserveAlertPair(t testing.TB, sweep int, ops []byte) *Store {
	cfg := alertPairConfig(sweep)
	fused, pair := New(cfg), New(cfg)
	now, prev := base, base
	for i := 0; i+3 <= len(ops); i += 3 {
		b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
		user := fmt.Sprintf("prolific%d", b0&3)
		if b0&0x80 != 0 {
			user = fmt.Sprintf("user%d", b0&63)
		}
		var at time.Time
		if b1&0x80 == 0 {
			now = now.Add(time.Duration(b1&0x7f) * 10 * time.Second)
			at = now
		} else {
			at = now.Add(-time.Duration(b1&0x7f) * 5 * time.Second)
		}
		switch {
		case b2&4 != 0:
			at = time.Time{}
		case b2&8 != 0:
			at = prev
		}
		prev = at
		o := Observation{
			UserID:       user,
			ScreenName:   user,
			At:           at,
			Aggressive:   b2&1 != 0,
			Confidence:   float64(b2>>5) / 7,
			SuspendAfter: alertSuspendAfter,
		}
		alert := b2&2 != 0

		var got, want Outcome
		if alert {
			got = fused.ObserveAlert(o)
			want = pair.Observe(o)
			offense := o
			offense.Offense, offense.OffenseOnly = true, true
			second := pair.Observe(offense)
			want.Offenses, want.Suspended, want.NewlySuspended = second.Offenses, second.Suspended, second.NewlySuspended
		} else {
			o.Offense = b2&16 != 0
			got = fused.Observe(o)
			want = pair.Observe(o)
		}
		if g, w := exactOutcomeKey(got), exactOutcomeKey(want); g != w {
			t.Fatalf("op %d (%+v, alert %v):\n  ObserveAlert  %s\n  Observe pair  %s", i/3, o, alert, g, w)
		}
	}

	gotBlob, err := fused.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := pair.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBlob, wantBlob) {
		t.Fatalf("checkpoints differ: %d bytes after ObserveAlert, %d after the Observe pair", len(gotBlob), len(wantBlob))
	}
	gotCap, gotTTL := fused.Evictions()
	wantCap, wantTTL := pair.Evictions()
	if g, w := [...]int64{fused.SessionVerdicts(), fused.Escalations(), fused.Suspensions(), gotCap, gotTTL},
		[...]int64{pair.SessionVerdicts(), pair.Escalations(), pair.Suspensions(), wantCap, wantTTL}; g != w {
		t.Fatalf("counters (sessions, escalations, suspensions, cap and TTL evictions) %v, pair %v", g, w)
	}
	return fused
}

// alertOps builds a pseudo-random history in the runObserveAlertPair
// encoding: two tweets in three from the prolific accounts, mostly small
// clock steps, one tweet in nine backdated, rarer repeated or missing
// timestamps and clock jumps past the TTL, and most aggressive tweets
// alerting.
func alertOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		b0 := byte(rng.Intn(4))
		if rng.Intn(3) == 0 {
			b0 = 0x80 | byte(rng.Intn(64))
		}
		b1 := byte(rng.Intn(7))
		switch k := rng.Intn(40); {
		case k < 4:
			b1 = 0x80 | byte(rng.Intn(121)) // up to ten minutes back
		case k == 4:
			b1 = 0x7f // past the TTL after a few in a row
		}
		b2 := byte(rng.Intn(8)) << 5
		if rng.Intn(5) < 2 {
			b2 |= 1
			if rng.Intn(4) > 0 {
				b2 |= 2
			}
		}
		switch k := rng.Intn(60); {
		case k < 2:
			b2 |= 4
		case k < 6:
			b2 |= 8
		case k < 10:
			b2 |= 16
		}
		ops = append(ops, b0, b1, b2)
	}
	return ops
}

// FuzzObserveAlertMatchesPair is the equivalence proof for ObserveAlert:
// one call per alerting tweet leaves the store, every outcome and the
// checkpoint bytes exactly as the full Observe plus offense-only Observe
// the pipeline used to make, at every sweepPerObserve the fuzzer picks.
func FuzzObserveAlertMatchesPair(f *testing.F) {
	const alert = 0xE3 // aggressive, alerting, confidence 1
	seeds := [][]byte{
		// A user's first tweet is an alert.
		{0, 1, alert},
		// SuspendAfter crossed, then one more alert past it.
		bytes.Repeat([]byte{0, 6, alert}, alertSuspendAfter+1),
		// Alerts without a timestamp, before and after the clock started.
		{1, 0, alert | 4, 1, 3, alert, 1, 0, alert | 4, 1, 0, alert | 8},
		// Sixteen new users on eight slots: inserts evict by cap.
		func() []byte {
			var ops []byte
			for k := byte(0); k < 16; k++ {
				ops = append(ops, 0x80|k, 1, alert)
			}
			return ops
		}(),
		// Three users go idle while one posts past the TTL: sweeps evict.
		{0x80, 1, alert, 0x81, 1, alert, 0x82, 1, 0x20, 0, 0x7f, alert, 0, 0x7f, alert, 0, 1, alert, 0, 1, alert},
	}
	var capEvicted, ttlEvicted, suspended int64
	for _, ops := range seeds {
		s := runObserveAlertPair(f, 1, ops)
		c, l := s.Evictions()
		capEvicted, ttlEvicted, suspended = capEvicted+c, ttlEvicted+l, suspended+s.Suspensions()
	}
	if capEvicted == 0 || ttlEvicted == 0 || suspended == 0 {
		f.Fatalf("seeds evicted %d by cap and %d by TTL and suspended %d users: each edge needs at least one", capEvicted, ttlEvicted, suspended)
	}
	for _, ops := range seeds {
		f.Add(uint8(0), ops)
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(uint8(seed), alertOps(seed, 1500))
	}
	f.Fuzz(func(t *testing.T, sweep uint8, ops []byte) {
		runObserveAlertPair(t, 1+int(sweep%3), ops)
	})
}
