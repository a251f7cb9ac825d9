package core

import (
	"sync"

	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// alertsRaisedTotal counts alerts across every pipeline in the process on
// the default metrics registry, so a serving deployment sees alert volume
// on /metrics without per-pipeline wiring.
var alertsRaisedTotal = metrics.Default().Counter(
	"redhanded_alerts_raised_total",
	"Alerts raised by the alerting step across all pipelines.", nil)

// Alert is raised in real time when a tweet is predicted aggressive with
// sufficient confidence.
type Alert struct {
	TweetID    string  `json:"tweet_id"`
	UserID     string  `json:"user_id"`
	ScreenName string  `json:"screen_name"`
	Label      string  `json:"label"` // predicted class name
	Confidence float64 `json:"confidence"`
	Text       string  `json:"text"`
	// Offenses is the author's offense count including this alert, and
	// Suspended whether the count crossed the repeated-offense bar (zero
	// values for tweets without a user ID).
	Offenses  int  `json:"offenses,omitempty"`
	Suspended bool `json:"suspended,omitempty"`
}

// AlertSink consumes alerts. Implementations may forward them to human
// moderators, post automatic warnings, or remove tweets (§III-A lists the
// options).
type AlertSink interface {
	HandleAlert(Alert)
}

// AlertSinkFunc adapts a function to the AlertSink interface.
type AlertSinkFunc func(Alert)

// HandleAlert implements AlertSink.
func (f AlertSinkFunc) HandleAlert(a Alert) { f(a) }

// Alerter implements the alerting step: it filters predictions by
// confidence and forwards alerts to registered sinks. The per-user alert
// history and suspension flags live in the pipeline's userstate store, so
// history survives checkpoints and stays memory-bounded alongside the rest
// of the user state.
type Alerter struct {
	mu        sync.Mutex
	threshold float64
	// sinks is copy-on-write: Subscribe installs a fresh slice and never
	// writes to a published one, so raise iterates the slice it read
	// under mu without cloning it per alert.
	sinks []AlertSink
	users *userstate.Store
	// SuspendAfter is the repeated-offense count that triggers an account
	// suspension recommendation (0 disables).
	SuspendAfter int
	raised       int64
}

// newAlerter binds an alerter to the pipeline's store: one store carries
// sessions, offenses, and escalation state.
func newAlerter(threshold float64, users *userstate.Store) *Alerter {
	return &Alerter{threshold: threshold, users: users, SuspendAfter: 5}
}

// Subscribe registers a sink for future alerts.
func (a *Alerter) Subscribe(s AlertSink) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinks = append(a.sinks[:len(a.sinks):len(a.sinks)], s)
}

// arm reports whether a prediction of this confidence raises an alert
// (a NaN confidence does: it is not below the threshold) and, when it
// does, the repeated-offense bar the alert's offense is judged against.
func (a *Alerter) arm(confidence float64) (suspendAfter int, ok bool) {
	if confidence < a.threshold {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.SuspendAfter, true
}

// raise counts one alert and fans it out to the sinks, carrying the
// author's offense history as out reports it after the alert's offense
// (zero values for a tweet without a user ID).
func (a *Alerter) raise(tw *twitterdata.Tweet, predicted string, confidence float64, out userstate.Outcome) {
	a.mu.Lock()
	a.raised++
	alertsRaisedTotal.Inc()
	sinks := a.sinks
	a.mu.Unlock()
	alert := Alert{
		TweetID:    tw.IDStr,
		UserID:     tw.User.IDStr,
		ScreenName: tw.User.ScreenName,
		Label:      predicted,
		Confidence: confidence,
		Text:       tw.Text,
		Offenses:   out.Offenses,
		Suspended:  out.Suspended,
	}
	for _, s := range sinks {
		s.HandleAlert(alert)
	}
}

// Raised returns the total number of alerts raised.
func (a *Alerter) Raised() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.raised
}

// OffenseCount returns the alert history of one user.
func (a *Alerter) OffenseCount(userID string) int { return a.users.OffenseCount(userID) }

// Suspended reports whether the user crossed the repeated-offense bar.
func (a *Alerter) Suspended(userID string) bool { return a.users.Suspended(userID) }

// SuspendedUsers returns all users recommended for suspension, sorted so
// repeated calls (and API clients) see a stable order.
func (a *Alerter) SuspendedUsers() []string { return a.users.SuspendedUsers() }
