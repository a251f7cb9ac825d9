// Package userstate is the per-user behavioral state layer: a
// lock-striped, power-of-two-sharded store of user records that unifies
// the sliding session window, the offense/suspension history, and the
// longer-horizon behavioral aggregates (EWMA aggression score, tweet
// cadence, last-N verdict ring) the escalation detector reads.
//
// The paper's headline claim is catching *users* red-handed — repetitive
// hostile behavior across a user's recent tweets, not one post — and the
// related work shows the per-user trajectory is the signal that matters
// (aggression recurs per-user over time and escalates across windows).
// This package makes that state production-scale:
//
//   - Sharded: records live in 2^k lock-striped shards keyed by
//     FNV-1a(userID), so concurrent Observe/Lookup traffic from many
//     goroutines does not serialize on one mutex.
//   - Bounded: a configurable MaxUsers cap is enforced per shard with
//     CLOCK (second-chance) eviction, and idle records are retired by a
//     TTL sweep amortized into Observe — a few ring slots per call, never
//     a stop-the-world prune.
//   - Checkpointable: the full store state (CLOCK order and hand included)
//     round-trips through a versioned, length-prefixed, checksummed
//     encoding (checkpoint.go), so a restored store replays the remaining
//     stream to the exact same verdicts as an uninterrupted run.
//
// Observation processing is deterministic given the per-user observation
// order, which shard affinity upstream (hash(userID) routing in
// internal/serve, user-keyed shares in internal/engine) preserves.
package userstate

import (
	"cmp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SessionConfig tunes the per-user sliding session window (the paper's
// §VI future-work extension: repetitive hostility judged over a group of
// tweets from the same user).
type SessionConfig struct {
	// Window is the sliding session length (default 1 hour).
	Window time.Duration
	// MinTweets is the minimum number of tweets in the window before a
	// session can be judged (default 3).
	MinTweets int
	// AggressiveShare is the fraction of window tweets predicted
	// aggressive that flags the session (default 0.6).
	AggressiveShare float64
	// Cooldown suppresses repeated verdicts for the same user within this
	// duration (default = Window).
	Cooldown time.Duration
}

// DefaultSessionConfig returns 1-hour windows flagging >= 60% aggressive.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.6}
}

func (c SessionConfig) withDefaults() SessionConfig {
	d := DefaultSessionConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.MinTweets <= 0 {
		c.MinTweets = d.MinTweets
	}
	if c.AggressiveShare <= 0 {
		c.AggressiveShare = d.AggressiveShare
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Window
	}
	return c
}

// EscalationConfig tunes the cross-session escalation detector: a user
// whose exponentially-weighted aggression score stays high across a span
// longer than one session window — and whose recent verdicts are not
// decaying — is flagged as trending toward aggression.
type EscalationConfig struct {
	// Alpha is the EWMA smoothing factor for the aggression score
	// (default 0.15). Each observation folds in confidence (aggressive)
	// or 0 (normal): score += Alpha * (x - score).
	Alpha float64
	// Threshold is the score at which escalation fires (default 0.6).
	// Negative disables escalation verdicts entirely.
	Threshold float64
	// MinTweets is the minimum total observations before a user can
	// escalate (default 8).
	MinTweets int
	// MinSpan is the minimum first-seen..now span (default = the session
	// window): the signal must persist across windows, not within one.
	MinSpan time.Duration
	// Cooldown suppresses repeated escalations for the same user
	// (default = the session window).
	Cooldown time.Duration
}

func (c EscalationConfig) withDefaults(session SessionConfig) EscalationConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.15
	}
	if c.Threshold == 0 {
		c.Threshold = 0.6
	}
	if c.MinTweets <= 0 {
		c.MinTweets = 8
	}
	if c.MinSpan <= 0 {
		c.MinSpan = session.Window
	}
	if c.Cooldown <= 0 {
		c.Cooldown = session.Window
	}
	return c
}

// Config tunes a Store. The zero value resolves to 16 shards, an
// unbounded user count, a 24-hour idle TTL, and the default session and
// escalation parameters.
type Config struct {
	// Shards is the lock-stripe count, rounded up to a power of two
	// (default 16).
	Shards int
	// MaxUsers caps the number of tracked records across all shards
	// (0 = unbounded). The cap is enforced per shard (MaxUsers/Shards)
	// with CLOCK eviction on insert; a cap below Shards shrinks the
	// stripe count so the budget is never exceeded.
	MaxUsers int
	// TTL retires records idle longer than this, measured in event time
	// against the newest observation the record's shard has seen
	// (default 24h; negative disables the sweep).
	TTL time.Duration
	// RingSize is the per-user last-N verdict ring length feeding the
	// escalation trend check (default 16).
	RingSize int
	// Session tunes the sliding session window.
	Session SessionConfig
	// Escalation tunes the cross-session escalation detector.
	Escalation EscalationConfig

	// sweepPerObserve replaces observeSweep when non-zero; only
	// in-package tests set it.
	sweepPerObserve int
}

// observeSweep is how many CLOCK-ring slots each Observe examines for
// expired records — the amortized alternative to a stop-the-world prune.
const observeSweep = 2

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	// A cap below the stripe count cannot be enforced per shard without
	// overshooting; shrink the stripe count (largest power of two <= cap)
	// so the sum of per-shard caps never exceeds MaxUsers.
	if c.MaxUsers > 0 {
		for c.Shards > 1 && c.MaxUsers < c.Shards {
			c.Shards >>= 1
		}
	}
	if c.TTL == 0 {
		c.TTL = 24 * time.Hour
	}
	c.sweepPerObserve = cmp.Or(c.sweepPerObserve, observeSweep)
	if c.RingSize <= 0 {
		c.RingSize = 16
	}
	c.Session = c.Session.withDefaults()
	c.Escalation = c.Escalation.withDefaults(c.Session)
	return c
}

// SessionVerdict is emitted when a user's sliding window crosses the
// aggression threshold.
type SessionVerdict struct {
	UserID          string    `json:"user_id"`
	ScreenName      string    `json:"screen_name"`
	WindowStart     time.Time `json:"window_start"`
	WindowEnd       time.Time `json:"window_end"`
	Tweets          int       `json:"tweets"`
	AggressiveShare float64   `json:"aggressive_share"`
	MeanConfidence  float64   `json:"mean_confidence"`
}

// EscalationVerdict is emitted when a user's behavior is trending toward
// aggression across sessions: the EWMA score crossed the threshold over a
// span longer than one window and the recent verdicts are not decaying.
type EscalationVerdict struct {
	UserID     string  `json:"user_id"`
	ScreenName string  `json:"screen_name"`
	Score      float64 `json:"score"`
	Tweets     int64   `json:"tweets"`
	Aggressive int64   `json:"aggressive"`
	// RecentShare is the aggressive share of the last-N verdict ring.
	RecentShare float64   `json:"recent_share"`
	Sessions    int64     `json:"session_verdicts"`
	Offenses    int       `json:"offenses"`
	FirstSeen   time.Time `json:"first_seen"`
	At          time.Time `json:"at"`
}

// Observation is one classified tweet folded into its author's record.
type Observation struct {
	UserID     string
	ScreenName string
	// At is the tweet timestamp; the zero time falls back to the newest
	// event time the user's shard has seen (offense histories predate
	// timestamps) and never enters the session window.
	At         time.Time
	Aggressive bool
	Confidence float64
	// Offense marks that an alert was raised for this tweet; it advances
	// the user's offense count and, once the count reaches SuspendAfter,
	// flips the suspension recommendation.
	Offense      bool
	SuspendAfter int
	// OffenseOnly records the offense without touching the session window
	// or the behavioral aggregates: a second observation of a tweet already
	// observed in full. No production path sets it (ObserveAlert folds both
	// halves in one call); it is the reference half that
	// FuzzObserveAlertMatchesPair and core's reference pipeline compare
	// ObserveAlert against.
	OffenseOnly bool
}

// Outcome reports what one Observe did.
type Outcome struct {
	// Session is non-nil when the sliding window crossed the threshold.
	Session *SessionVerdict
	// Escalation is non-nil when the cross-session detector fired.
	Escalation *EscalationVerdict
	// Offenses and Suspended reflect the record after this observation.
	Offenses  int
	Suspended bool
	// NewlySuspended is true when this observation crossed SuspendAfter.
	NewlySuspended bool
}

// RecentVerdict is one slot of a user's last-N verdict ring.
type RecentVerdict struct {
	At         time.Time `json:"at"`
	Aggressive bool      `json:"aggressive"`
	Confidence float64   `json:"confidence"`
}

// Snapshot is a copy of one user's state (Lookup). Reads never touch the
// CLOCK reference bits, so introspection cannot perturb eviction order —
// a replay after checkpoint/restore stays deterministic no matter how
// many lookups ran in between.
type Snapshot struct {
	UserID     string    `json:"user_id"`
	ScreenName string    `json:"screen_name"`
	FirstSeen  time.Time `json:"first_seen"`
	LastSeen   time.Time `json:"last_seen"`
	// Tweets and Aggressive are lifetime totals (within the record's
	// residency in the store).
	Tweets     int64 `json:"tweets"`
	Aggressive int64 `json:"aggressive"`
	// WindowTweets and WindowAggressiveShare describe the sliding session
	// window as of the user's last observation.
	WindowTweets          int     `json:"window_tweets"`
	WindowAggressiveShare float64 `json:"window_aggressive_share"`
	Offenses              int     `json:"offenses"`
	Suspended             bool    `json:"suspended"`
	// Score is the EWMA aggression score the escalation detector reads.
	Score float64 `json:"score"`
	// CadenceSeconds is the EWMA inter-tweet gap (0 until two timestamped
	// tweets have been seen).
	CadenceSeconds float64 `json:"cadence_seconds"`
	Sessions       int64   `json:"sessions"`
	Escalations    int64   `json:"escalations"`
	// Recent is the last-N verdict ring, oldest first.
	Recent []RecentVerdict `json:"recent"`
}

// entry is one observed tweet: a session-window element and a last-N
// verdict-ring slot share the same shape. A store holds one per windowed
// tweet, so the verdict bit rides in the timestamp word (16 bytes, not
// 24): stamp is the unix-nano time shifted left once with the aggressive
// flag in bit 0. nanos() saturates times to the 63 bits that leaves.
type entry struct {
	stamp      int64
	confidence float64
}

func newEntry(at int64, aggressive bool, confidence float64) entry {
	e := entry{stamp: at << 1, confidence: confidence}
	if aggressive {
		e.stamp |= 1
	}
	return e
}

func (e entry) at() int64        { return e.stamp >> 1 }
func (e entry) aggressive() bool { return e.stamp&1 != 0 }

// record is one user's state. All times are unix nanos (0 = unset).
// The CLOCK cache holds up to MaxUsers (default 100k) of these, so the
// field order is alignment-packed: word-sized fields first, then the two
// half-word window counters, the byte-wide flags together at the tail.
// The fieldalign check and the
// TestRecordSizePinned pin enforce it (two stray interior bools
// previously cost 8 bytes per record — 0.8 MB at the default cap).
//
//redvet:packed
type record struct {
	id         string
	screenName string

	// Sliding session window (window.go): entries[head:] in arrival order.
	entries     []entry
	lastVerdict int64

	// Offense history (the alerting step's repeated-offense bookkeeping).
	offenses int

	// Behavioral aggregates.
	firstSeen, lastSeen int64
	tweets, aggressive  int64
	score               float64 // EWMA aggression
	cadence             float64 // EWMA inter-arrival seconds
	recent              []entry
	recentPos, recentN  int
	sessions            int64
	escalations         int64
	lastEscalation      int64

	// CLOCK bookkeeping.
	ringIdx int

	winMin  int64 // session window: oldest time in it, kept while disordered
	head    int32 // session window: index of the oldest live entry
	winAggr int32 // session window: aggressive entries in entries[head:]

	suspended  bool // offense history: suspension latch
	ref        bool // CLOCK reference bit
	disordered bool // session window: arrival order is not time order
}

// shard is one lock stripe: a map for lookup plus a CLOCK ring (slice +
// hand) for eviction order.
type shard struct {
	mu      sync.Mutex
	users   map[string]*record
	ring    []*record
	hand    int
	maxTime int64 // newest event time observed by this shard
	free    []*record
}

// Store is the sharded, bounded, checkpointable user-state store. It is
// safe for concurrent use.
type Store struct {
	cfg     Config
	mask    uint64
	shards  []*shard
	perCap  int // per-shard record cap (0 = unbounded)
	ttl     int64
	minSpan int64
	sessCd  int64
	escCd   int64
	window  int64

	verdicts     atomic.Int64
	escalations  atomic.Int64
	suspensions  atomic.Int64
	evictionsCap atomic.Int64
	evictionsTTL atomic.Int64
	// lockWaits and lockWaitNanos count the Observe acquires that found
	// their shard stripe held and the time they spent blocked; a free
	// stripe touches neither.
	lockWaits     atomic.Int64
	lockWaitNanos atomic.Int64
}

// New builds a store from cfg (zero value = defaults).
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		mask:    uint64(cfg.Shards - 1),
		shards:  make([]*shard, cfg.Shards),
		window:  int64(cfg.Session.Window),
		sessCd:  int64(cfg.Session.Cooldown),
		minSpan: int64(cfg.Escalation.MinSpan),
		escCd:   int64(cfg.Escalation.Cooldown),
	}
	if cfg.TTL > 0 {
		s.ttl = int64(cfg.TTL)
	}
	if cfg.MaxUsers > 0 {
		// withDefaults guarantees Shards <= MaxUsers, so perCap >= 1 and
		// perCap*Shards <= MaxUsers: the process-wide cap holds exactly.
		s.perCap = cfg.MaxUsers / cfg.Shards
	}
	for i := range s.shards {
		s.shards[i] = &shard{users: make(map[string]*record)}
	}
	return s
}

// Config returns the resolved configuration.
func (s *Store) Config() Config { return s.cfg }

// fnv64a is the shard hash (inlined to keep Observe allocation-free).
func fnv64a(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store) shardFor(id string) *shard {
	return s.shards[fnv64a(id)&s.mask]
}

// maxNanos bounds stored times to what entry.stamp can carry beside its
// flag bit: years 1823 to 2116.
const maxNanos = 1<<62 - 1

func nanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return clampNanos(t.UnixNano())
}

func clampNanos(n int64) int64 {
	return max(-maxNanos, min(n, maxNanos))
}

func fromNanos(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// Observe folds one classified tweet into its author's record, returning
// any session/escalation verdicts it triggered. Empty user IDs are
// ignored (zero Outcome).
//
//redvet:noalloc gate=UserstateObserveHot
func (s *Store) Observe(o Observation) Outcome {
	return s.observe(o, false)
}

// ObserveAlert folds a tweet that raised an alert: the tweet as a full
// observation (whatever o.Offense and o.OffenseOnly say), then the alert's
// offense against o.SuspendAfter, under one lock and one record lookup.
// State and Outcome are exactly those of Observe(o) followed by an
// offense-only Observe of the same tweet: the session and escalation
// verdicts are judged before the offense (an EscalationVerdict's Offenses
// excludes this alert), and Offenses, Suspended and NewlySuspended are read
// after it.
//
//redvet:noalloc gate=UserstateObserveHot
func (s *Store) ObserveAlert(o Observation) Outcome {
	o.Offense, o.OffenseOnly = false, false
	return s.observe(o, true)
}

// observe takes o's shard stripe, recording the wait when it was held, and
// folds o, then the alert's offense when alert is set.
//
//redvet:noalloc gate=UserstateObserveHot
func (s *Store) observe(o Observation, alert bool) Outcome {
	if o.UserID == "" {
		return Outcome{}
	}
	sh := s.shardFor(o.UserID)
	if !sh.mu.TryLock() {
		//redvet:ignore hotpathhygiene contended acquires only: the stripe was held, so the wait is real and worth two clock reads
		t0 := time.Now()
		sh.mu.Lock()
		//redvet:ignore hotpathhygiene see t0 above: the pair times the blocked acquire for LockWaits
		s.lockWaitNanos.Add(int64(time.Since(t0)))
		s.lockWaits.Add(1)
	}
	out := s.observeLocked(sh, o, alert)
	sh.mu.Unlock()
	return out
}

//redvet:noalloc gate=UserstateObserveHot
func (s *Store) observeLocked(sh *shard, o Observation, alert bool) Outcome {
	at := nanos(o.At)
	hasTime := at != 0
	if at > sh.maxTime {
		sh.maxTime = at
	}
	if !hasTime {
		at = sh.maxTime
	}

	r := sh.users[o.UserID]
	if r == nil {
		r = s.insert(sh, o.UserID)
	}
	r.ref = true
	if o.ScreenName != "" && o.ScreenName != r.screenName {
		// Clone for the same arena-aliasing reason as insert; the equality
		// guard keeps the copy off the steady state (a user's screen name
		// rarely changes between observations).
		r.screenName = strings.Clone(o.ScreenName)
	}
	if r.firstSeen == 0 || (at != 0 && at < r.firstSeen) {
		r.firstSeen = at
	}

	var out Outcome
	if !o.OffenseOnly {
		// Behavioral aggregates.
		r.tweets++
		x := 0.0
		if o.Aggressive {
			r.aggressive++
			x = o.Confidence
		}
		r.score += s.cfg.Escalation.Alpha * (x - r.score)
		if hasTime && r.lastSeen > 0 && at > r.lastSeen {
			gap := float64(at-r.lastSeen) / float64(time.Second)
			if r.cadence == 0 {
				r.cadence = gap
			} else {
				r.cadence += 0.2 * (gap - r.cadence)
			}
		}
		r.recent[r.recentPos] = newEntry(at, o.Aggressive, o.Confidence)
		r.recentPos = (r.recentPos + 1) % len(r.recent)
		if r.recentN < len(r.recent) {
			r.recentN++
		}
	}
	if at > r.lastSeen {
		r.lastSeen = at
	}

	// Offense history.
	if o.Offense {
		out.NewlySuspended = s.offend(r, o.SuspendAfter)
	}

	if !o.OffenseOnly && hasTime {
		// Sliding session window: append, expire, judge.
		r.slide(newEntry(at, o.Aggressive, o.Confidence), at-s.window)
		if v := s.judgeSession(r, at); v != nil {
			out.Session = v
		}
		if v := s.judgeEscalation(r, at); v != nil {
			out.Escalation = v
		}
	}

	sweeps := s.cfg.sweepPerObserve
	if alert {
		// What the separate offense-only Observe did: the offense after the
		// judges, and that call's own sweep slots.
		out.NewlySuspended = s.offend(r, o.SuspendAfter)
		sweeps *= 2
	}

	out.Offenses = r.offenses
	out.Suspended = r.suspended

	s.sweep(sh, r, sweeps)
	return out
}

// offend advances r's offense history by one, reporting whether the count
// just reached suspendAfter and flipped the suspension recommendation.
func (s *Store) offend(r *record, suspendAfter int) bool {
	r.offenses++
	if r.suspended || suspendAfter <= 0 || r.offenses < suspendAfter {
		return false
	}
	r.suspended = true
	s.suspensions.Add(1)
	return true
}

// judgeSession applies the session-window threshold.
func (s *Store) judgeSession(r *record, at int64) *SessionVerdict {
	win := r.window()
	if len(win) < s.cfg.Session.MinTweets {
		return nil
	}
	if r.lastVerdict != 0 && at-r.lastVerdict < s.sessCd {
		return nil
	}
	share := r.windowShare()
	if share < s.cfg.Session.AggressiveShare {
		return nil
	}
	// Only a firing verdict reads the window: the confidences are summed
	// oldest to newest, so the mean is the one a full re-walk would give.
	confSum := 0.0
	for _, e := range win {
		if e.aggressive() {
			confSum += e.confidence
		}
	}
	r.lastVerdict = at
	r.sessions++
	s.verdicts.Add(1)
	return &SessionVerdict{
		UserID:          r.id,
		ScreenName:      r.screenName,
		WindowStart:     fromNanos(win[0].at()),
		WindowEnd:       fromNanos(at),
		Tweets:          len(win),
		AggressiveShare: share,
		MeanConfidence:  confSum / float64(r.winAggr),
	}
}

// judgeEscalation fires when the user's EWMA aggression score holds above
// the threshold across a span longer than one session window, with the
// last-N verdict ring confirming the trend is not decaying.
func (s *Store) judgeEscalation(r *record, at int64) *EscalationVerdict {
	cfg := s.cfg.Escalation
	if cfg.Threshold < 0 {
		return nil
	}
	if r.tweets < int64(cfg.MinTweets) || r.score < cfg.Threshold {
		return nil
	}
	if r.firstSeen == 0 || at-r.firstSeen < s.minSpan {
		return nil
	}
	if r.lastEscalation != 0 && at-r.lastEscalation < s.escCd {
		return nil
	}
	// Trend check over the ring (oldest->newest): the newer half must be
	// at least as aggressive as the older half, and aggressive at all.
	if r.recentN < len(r.recent)/2 {
		return nil
	}
	older, newer, aggr := 0, 0, 0
	half := r.recentN / 2
	for i := 0; i < r.recentN; i++ {
		// Logical index i=0 is the oldest retained slot.
		b := r.recent[(r.recentPos-r.recentN+i+2*len(r.recent))%len(r.recent)]
		if !b.aggressive() {
			continue
		}
		aggr++
		if i < half {
			older++
		} else {
			newer++
		}
	}
	if newer == 0 || newer < older {
		return nil
	}
	r.lastEscalation = at
	r.escalations++
	s.escalations.Add(1)
	return &EscalationVerdict{
		UserID:      r.id,
		ScreenName:  r.screenName,
		Score:       r.score,
		Tweets:      r.tweets,
		Aggressive:  r.aggressive,
		RecentShare: float64(aggr) / float64(r.recentN),
		Sessions:    r.sessions,
		Offenses:    r.offenses,
		FirstSeen:   fromNanos(r.firstSeen),
		At:          fromNanos(at),
	}
}

// insert creates a record, CLOCK-evicting one first when the shard is at
// its cap.
func (s *Store) insert(sh *shard, id string) *record {
	if s.perCap > 0 && len(sh.ring) >= s.perCap {
		s.evictClock(sh)
	}
	var r *record
	if n := len(sh.free); n > 0 {
		r = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		r = &record{recent: make([]entry, s.cfg.RingSize)}
	}
	// Clone the ID: observation strings may alias a pooled decode arena
	// (twitterdata.Decoder) whose chunk a retained record must not pin.
	// Insert is the once-per-user cold path, so the copy never lands on
	// the per-tweet steady state.
	r.id = strings.Clone(id)
	r.ringIdx = len(sh.ring)
	sh.ring = append(sh.ring, r)
	sh.users[r.id] = r
	return r
}

// evictClock runs the CLOCK hand: referenced records get a second chance
// (ref cleared), and the first unreferenced, unsuspended one is evicted.
// Suspended records carry the costliest state to forget (the
// repeated-offense recommendation), so they are passed over while any
// other victim exists; a ring full of suspended users still evicts one —
// the memory bound always wins. Bounded by two passes over the ring.
func (s *Store) evictClock(sh *shard) {
	var fallback *record // first unreferenced suspended record seen
	for steps := 0; steps < 2*len(sh.ring); steps++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		r := sh.ring[sh.hand]
		if r.ref {
			r.ref = false
			sh.hand++
			continue
		}
		if r.suspended {
			if fallback == nil {
				fallback = r
			}
			sh.hand++
			continue
		}
		s.remove(sh, r)
		s.evictionsCap.Add(1)
		return
	}
	if fallback == nil {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		fallback = sh.ring[sh.hand]
	}
	s.remove(sh, fallback)
	s.evictionsCap.Add(1)
}

// sweep amortizes TTL retirement into Observe: examine a few ring slots
// (slots of them) at the hand, evicting records idle past the TTL (event
// time). The record just observed is never a candidate (its lastSeen is
// current), and neither are suspended records — the repeated-offense
// recommendation must not silently expire; only cap pressure can
// reclaim it.
func (s *Store) sweep(sh *shard, current *record, slots int) {
	if s.ttl <= 0 || sh.maxTime <= s.ttl {
		return
	}
	cutoff := sh.maxTime - s.ttl
	for k := 0; k < slots && len(sh.ring) > 1; k++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		r := sh.ring[sh.hand]
		if r != current && !r.suspended && r.lastSeen < cutoff {
			s.remove(sh, r)
			s.evictionsTTL.Add(1)
			continue // the swapped-in record now sits at the hand
		}
		sh.hand++
	}
}

// remove deletes a record from the map and the CLOCK ring (swap-remove),
// recycling it through the shard's free list.
func (s *Store) remove(sh *shard, r *record) {
	delete(sh.users, r.id)
	i, last := r.ringIdx, len(sh.ring)-1
	sh.ring[i] = sh.ring[last]
	sh.ring[i].ringIdx = i
	sh.ring[last] = nil
	sh.ring = sh.ring[:last]
	if sh.hand > last {
		sh.hand = 0
	}
	// Reset and recycle: keep the entry/ring capacity, drop the contents.
	*r = record{entries: r.entries[:0], recent: r.recent}
	for j := range r.recent {
		r.recent[j] = entry{}
	}
	if len(sh.free) < 32 {
		sh.free = append(sh.free, r)
	}
}

// Lookup returns a copy of one user's state. It does not touch the CLOCK
// reference bit, so reads cannot perturb eviction order.
func (s *Store) Lookup(userID string) (Snapshot, bool) {
	if userID == "" {
		return Snapshot{}, false
	}
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.users[userID]
	if r == nil {
		return Snapshot{}, false
	}
	return snapshotOf(r), true
}

func snapshotOf(r *record) Snapshot {
	sn := Snapshot{
		UserID:         r.id,
		ScreenName:     r.screenName,
		FirstSeen:      fromNanos(r.firstSeen),
		LastSeen:       fromNanos(r.lastSeen),
		Tweets:         r.tweets,
		Aggressive:     r.aggressive,
		WindowTweets:   len(r.window()),
		Offenses:       r.offenses,
		Suspended:      r.suspended,
		Score:          r.score,
		CadenceSeconds: r.cadence,
		Sessions:       r.sessions,
		Escalations:    r.escalations,
	}
	if sn.WindowTweets > 0 {
		sn.WindowAggressiveShare = r.windowShare()
	}
	for i := 0; i < r.recentN; i++ {
		b := r.recent[(r.recentPos-r.recentN+i+2*len(r.recent))%len(r.recent)]
		sn.Recent = append(sn.Recent, RecentVerdict{
			At: fromNanos(b.at()), Aggressive: b.aggressive(), Confidence: b.confidence,
		})
	}
	return sn
}

// OffenseCount returns one user's offense count (0 for unknown users).
func (s *Store) OffenseCount(userID string) int {
	if userID == "" {
		return 0
	}
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r := sh.users[userID]; r != nil {
		return r.offenses
	}
	return 0
}

// Suspended reports whether the user crossed the repeated-offense bar.
func (s *Store) Suspended(userID string) bool {
	if userID == "" {
		return false
	}
	sh := s.shardFor(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r := sh.users[userID]; r != nil {
		return r.suspended
	}
	return false
}

// SuspendedUsers returns all users recommended for suspension, sorted so
// the listing is stable for clients.
func (s *Store) SuspendedUsers() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, r := range sh.ring {
			if r.suspended {
				out = append(out, r.id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of tracked user records across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.users)
		sh.mu.Unlock()
	}
	return n
}

// SessionVerdicts returns the total session verdicts emitted.
func (s *Store) SessionVerdicts() int64 { return s.verdicts.Load() }

// Escalations returns the total escalation verdicts emitted.
func (s *Store) Escalations() int64 { return s.escalations.Load() }

// Suspensions returns the total users newly recommended for suspension.
func (s *Store) Suspensions() int64 { return s.suspensions.Load() }

// Evictions returns records evicted by the cap and by the TTL sweep.
func (s *Store) Evictions() (cap, ttl int64) {
	return s.evictionsCap.Load(), s.evictionsTTL.Load()
}

// LockWaits returns how many Observe calls found their shard stripe held
// and the total time they waited for it. Unlike the verdict counters
// these are not checkpointed: they describe this process's contention.
func (s *Store) LockWaits() (n int64, waited time.Duration) {
	return s.lockWaits.Load(), time.Duration(s.lockWaitNanos.Load())
}
