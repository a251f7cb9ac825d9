package core

import (
	"testing"

	"redhanded/internal/ml"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

func mkTweet(id, userID string) *twitterdata.Tweet {
	return &twitterdata.Tweet{IDStr: id, User: twitterdata.User{IDStr: userID}}
}

// testAlerter returns the alerter of a fresh pipeline.
func testAlerter(threshold float64) *Alerter {
	opts := DefaultOptions()
	opts.AlertThreshold = threshold
	return NewPipeline(opts).Alerter()
}

func TestAlerterThreshold(t *testing.T) {
	a := testAlerter(0.8)
	if a.Consider(mkTweet("1", "u1"), "abusive", 0.5) {
		t.Fatalf("below-threshold alert raised")
	}
	if !a.Consider(mkTweet("2", "u1"), "abusive", 0.9) {
		t.Fatalf("above-threshold alert suppressed")
	}
	if a.Raised() != 1 {
		t.Fatalf("raised = %d, want 1", a.Raised())
	}
}

func TestAlerterSinkDelivery(t *testing.T) {
	a := testAlerter(0.5)
	var got []Alert
	a.Subscribe(AlertSinkFunc(func(al Alert) { got = append(got, al) }))
	a.Consider(mkTweet("7", "u9"), "hateful", 0.99)
	if len(got) != 1 || got[0].TweetID != "7" || got[0].Label != "hateful" {
		t.Fatalf("sink got %+v", got)
	}
}

func TestAlerterSuspension(t *testing.T) {
	a := testAlerter(0.5)
	a.SuspendAfter = 3
	for i := 0; i < 2; i++ {
		a.Consider(mkTweet("x", "offender"), "abusive", 0.9)
	}
	if a.Suspended("offender") {
		t.Fatalf("suspended too early")
	}
	a.Consider(mkTweet("y", "offender"), "abusive", 0.9)
	if !a.Suspended("offender") {
		t.Fatalf("not suspended after 3 offenses")
	}
	if a.OffenseCount("offender") != 3 {
		t.Fatalf("offense count = %d", a.OffenseCount("offender"))
	}
	users := a.SuspendedUsers()
	if len(users) != 1 || users[0] != "offender" {
		t.Fatalf("suspended users = %v", users)
	}
	if a.Suspended("innocent") {
		t.Fatalf("innocent user suspended")
	}
}

// TestAlertRaiseZeroAlloc: deciding an alert (arm) and fanning it out to
// the sinks (raise) allocates nothing. serve's TestAlertEgressZeroAlloc
// holds the rest of the egress, from the hub to the encoded frame.
func TestAlertRaiseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	a := testAlerter(0.5)
	var got Alert
	a.Subscribe(AlertSinkFunc(func(al Alert) { got = al }))
	tw := mkTweet("1", "42")
	raise := func() {
		if _, ok := a.arm(0.9); !ok {
			t.Fatal("no alert armed")
		}
		a.raise(tw, "hateful", 0.9, userstate.Outcome{Offenses: 1})
	}
	if allocs := testing.AllocsPerRun(200, raise); allocs != 0 {
		t.Fatalf("arm+raise allocates %v objects per alert, want 0", allocs)
	}
	if got.TweetID != "1" || got.UserID != "42" || got.Label != "hateful" || got.Offenses != 1 {
		t.Fatalf("sink got %+v", got)
	}
}

func TestBoostedSamplerCapacity(t *testing.T) {
	s := NewBoostedSampler(SamplerConfig{Capacity: 10, Boost: 4, Seed: 1})
	for i := 0; i < 1000; i++ {
		s.Offer(mkTweet("t", "u"), ml.Prediction{1, 0})
	}
	if got := len(s.Sample()); got != 10 {
		t.Fatalf("reservoir size = %d, want 10", got)
	}
	if s.Offered() != 1000 {
		t.Fatalf("offered = %d", s.Offered())
	}
}

func TestBoostedSamplerBoostsAggressive(t *testing.T) {
	s := NewBoostedSampler(SamplerConfig{Capacity: 200, Boost: 8, Seed: 2})
	// 90% predicted normal, 10% predicted aggressive.
	rng := ml.NewRNG(3)
	for i := 0; i < 20000; i++ {
		if rng.Float64() < 0.1 {
			tw := mkTweet("a", "u")
			tw.Label = "" // unlabeled
			tw.Text = "aggr"
			s.Offer(tw, ml.Prediction{0.1, 0.9})
		} else {
			tw := mkTweet("n", "u")
			tw.Text = "norm"
			s.Offer(tw, ml.Prediction{0.9, 0.1})
		}
	}
	aggr := 0
	for _, tw := range s.Sample() {
		if tw.Text == "aggr" {
			aggr++
		}
	}
	share := float64(aggr) / 200
	// Boosted share should far exceed the 10% base rate.
	if share < 0.3 {
		t.Fatalf("aggressive share = %v, want >= 0.3 (boosting broken)", share)
	}
	if share > 0.95 {
		t.Fatalf("aggressive share = %v; normal tweets squeezed out entirely", share)
	}
}

func TestBoostedSamplerDrain(t *testing.T) {
	s := NewBoostedSampler(SamplerConfig{Capacity: 5, Boost: 1, Seed: 4})
	for i := 0; i < 20; i++ {
		s.Offer(mkTweet("t", "u"), ml.Prediction{1, 0})
	}
	if got := len(s.Drain()); got != 5 {
		t.Fatalf("drain size = %d", got)
	}
	if got := len(s.Sample()); got != 0 {
		t.Fatalf("reservoir not emptied: %d", got)
	}
}

func TestAnnotatorGroundTruth(t *testing.T) {
	truth := smallDataset(11, 50, 30, 10)
	ann := NewAnnotator(truth, 0, 1)
	labeled := ann.Annotate(truth[:20])
	if len(labeled) != 20 {
		t.Fatalf("annotated %d, want 20", len(labeled))
	}
	for i, tw := range labeled {
		if tw.Label != truth[i].Label {
			t.Fatalf("noise-free annotator changed label at %d", i)
		}
	}
}

func TestAnnotatorNoise(t *testing.T) {
	truth := smallDataset(12, 200, 100, 50)
	ann := NewAnnotator(truth, 1.0, 2) // always wrong
	labeled := ann.Annotate(truth)
	for i, tw := range labeled {
		if tw.Label == truth[i].Label {
			t.Fatalf("always-noisy annotator kept true label at %d", i)
		}
	}
}

func TestAnnotatorSkipsUnknown(t *testing.T) {
	ann := NewAnnotator(nil, 0, 3)
	got := ann.Annotate([]twitterdata.Tweet{{IDStr: "nope"}})
	if len(got) != 0 {
		t.Fatalf("unknown tweets should be skipped")
	}
}
