// Package userstate is the per-user behavioral state layer: a
// power-of-two-striped store of user records that unifies
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
//   - Striped: records live in 2^k stripes keyed by FNV-1a(userID), each
//     with its own CLOCK ring, TTL hand and event clock. The stripes are
//     data partitions, not locks: a Store keeps no lock of its own, because
//     it belongs to one pipeline, whose lock serializes every call.
//   - Bounded: a configurable MaxUsers cap is enforced per stripe with
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

// Config tunes a Store. The zero value resolves to an unbounded user
// count, a 24-hour idle TTL, and the default session and escalation
// parameters.
type Config struct {
	// MaxUsers caps the number of tracked records across all shards
	// (0 = unbounded). The cap is enforced per shard (MaxUsers/stripes)
	// with CLOCK eviction on insert; a cap below the stripe count shrinks
	// the stripe count so the budget is never exceeded.
	MaxUsers int
	// TTL retires records idle longer than this, measured in event time
	// against the newest observation the record's shard has seen
	// (default 24h; negative disables the sweep).
	TTL time.Duration
	// Session tunes the sliding session window.
	Session SessionConfig
	// Escalation tunes the cross-session escalation detector.
	Escalation EscalationConfig

	// shards (rounded up to a power of two), ringSize and sweepPerObserve
	// replace stripeCount, verdictRing and observeSweep when non-zero; only
	// in-package tests set them.
	shards, ringSize, sweepPerObserve int
}

// The store's fixed tuning. stripeCount is the stripe count (a power of
// two, so stripe selection is a mask). verdictRing is the per-user last-N
// verdict ring feeding the escalation trend check. observeSweep is how
// many CLOCK-ring slots each Observe examines for expired records — the
// amortized alternative to a stop-the-world prune.
const (
	stripeCount  = 16
	verdictRing  = 16
	observeSweep = 2
)

func (c Config) withDefaults() Config {
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < cmp.Or(c.shards, stripeCount) {
		n <<= 1
	}
	c.shards = n
	// A cap below the stripe count cannot be enforced per shard without
	// overshooting; shrink the stripe count (largest power of two <= cap)
	// so the sum of per-shard caps never exceeds MaxUsers.
	if c.MaxUsers > 0 {
		for c.shards > 1 && c.MaxUsers < c.shards {
			c.shards >>= 1
		}
	}
	if c.TTL == 0 {
		c.TTL = 24 * time.Hour
	}
	c.ringSize = cmp.Or(c.ringSize, verdictRing)
	c.sweepPerObserve = cmp.Or(c.sweepPerObserve, observeSweep)
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

// record is one user's slab slot. All times are unix nanos (0 = unset).
// Its newest event time, suspension latch and CLOCK reference bit live in
// its CLOCK ring entry (stripe.ring[ringIdx]), and its last-N verdict ring
// beside it in the slab (slab.verdicts). The slab holds up to MaxUsers
// (default 100k) of these, so the field order is alignment-packed:
// word-sized fields first, then the half-word ones, the flag at the tail.
// The fieldalign check and the TestRecordSizePinned pin enforce it.
//
//redvet:packed
type record struct {
	id         key
	screenName key

	// Sliding session window (window.go): entries[head:] in arrival order.
	entries     []entry
	lastVerdict int64

	// Offense history (the alerting step's repeated-offense bookkeeping).
	offenses int

	// Behavioral aggregates.
	firstSeen          int64
	tweets, aggressive int64
	score              float64 // EWMA aggression
	cadence            float64 // EWMA inter-arrival seconds
	sessions           int64
	escalations        int64
	lastEscalation     int64

	hash   uint64 // fnv64a(id): the record's index entry
	winMin int64  // session window: oldest time in it, kept while disordered

	recentPos, recentN int32 // verdict ring: next slot, slots filled
	ringIdx            int32 // position in the CLOCK ring
	head               int32 // session window: index of the oldest live entry
	winAggr            int32 // session window: aggressive entries in entries[head:]

	disordered bool // session window: arrival order is not time order
}

// Store is the striped, bounded, checkpointable user-state store. It is
// not safe for concurrent use: it keeps no lock, because a Store belongs to
// one core.Pipeline, which calls it only under its own lock. Other
// goroutines read it through the pipeline (core.Pipeline.LookupUser and
// Counts), never directly.
type Store struct {
	cfg     Config
	mask    uint64
	stripes []stripe
	perCap  int // per-shard record cap (0 = unbounded)
	ttl     int64
	minSpan int64
	sessCd  int64
	escCd   int64
	window  int64

	counts counterState // checkpointed as they are
}

// New builds a store from cfg (zero value = defaults).
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		mask:    uint64(cfg.shards - 1),
		stripes: make([]stripe, cfg.shards),
		window:  int64(cfg.Session.Window),
		sessCd:  int64(cfg.Session.Cooldown),
		minSpan: int64(cfg.Escalation.MinSpan),
		escCd:   int64(cfg.Escalation.Cooldown),
	}
	if cfg.TTL > 0 {
		s.ttl = int64(cfg.TTL)
	}
	if cfg.MaxUsers > 0 {
		// withDefaults guarantees shards <= MaxUsers, so perCap >= 1 and
		// perCap*shards <= MaxUsers: the process-wide cap holds exactly.
		s.perCap = cfg.MaxUsers / cfg.shards
	}
	for i := range s.stripes {
		s.stripes[i].slab.ringLen = cfg.ringSize
	}
	return s
}

// fnv64a is the user-ID hash: its low bits choose the stripe, and the
// stripe's index takes the home slot from the rest.
func fnv64a(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store) stripeFor(h uint64) *stripe {
	return &s.stripes[h&s.mask]
}

// find returns userID's stripe and the slab index of its record there
// (noRec for an unknown user).
func (s *Store) find(userID string) (*stripe, int32) {
	h := fnv64a(userID)
	st := s.stripeFor(h)
	return st, st.index.find(h, userID, &st.slab)
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
// offense against o.SuspendAfter, in one record lookup.
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

// observe folds o into its author's record on o's stripe, then the
// alert's offense when alert is set.
//
//redvet:noalloc gate=UserstateObserveHot
func (s *Store) observe(o Observation, alert bool) Outcome {
	if o.UserID == "" {
		return Outcome{}
	}
	h := fnv64a(o.UserID)
	sh := s.stripeFor(h)
	at := nanos(o.At)
	hasTime := at != 0
	if at > sh.maxTime {
		sh.maxTime = at
	}
	if !hasTime {
		at = sh.maxTime
	}

	i := sh.index.find(h, o.UserID, &sh.slab)
	if i == noRec {
		i = s.insert(sh, h, o.UserID)
	}
	r := sh.slab.at(i)
	res := &sh.ring[r.ringIdx] // valid until the sweep below
	res.flags |= flagRef
	if o.ScreenName != "" && !r.screenName.is(o.ScreenName) {
		r.screenName.set(o.ScreenName)
	}
	if r.firstSeen == 0 || (at != 0 && at < r.firstSeen) {
		r.firstSeen = at
	}
	lastSeen := res.lastSeen
	recent := sh.slab.verdicts(i)

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
		if hasTime && lastSeen > 0 && at > lastSeen {
			gap := float64(at-lastSeen) / float64(time.Second)
			if r.cadence == 0 {
				r.cadence = gap
			} else {
				r.cadence += 0.2 * (gap - r.cadence)
			}
		}
		recent[r.recentPos] = newEntry(at, o.Aggressive, o.Confidence)
		r.recentPos = (r.recentPos + 1) % int32(len(recent))
		if int(r.recentN) < len(recent) {
			r.recentN++
		}
	}
	if at > lastSeen {
		res.lastSeen = at
	}

	// Offense history.
	if o.Offense {
		out.NewlySuspended = s.offend(res, r, o.SuspendAfter)
	}

	if !o.OffenseOnly && hasTime {
		// Sliding session window: append, expire, judge.
		r.slide(newEntry(at, o.Aggressive, o.Confidence), at-s.window)
		if v := s.judgeSession(r, at); v != nil {
			out.Session = v
		}
		if v := s.judgeEscalation(r, recent, at); v != nil {
			out.Escalation = v
		}
	}

	sweeps := s.cfg.sweepPerObserve
	if alert {
		// What the separate offense-only Observe did: the offense after the
		// judges, and that call's own sweep slots.
		out.NewlySuspended = s.offend(res, r, o.SuspendAfter)
		sweeps *= 2
	}

	out.Offenses = r.offenses
	out.Suspended = res.flags&flagSuspended != 0

	s.sweep(sh, i, sweeps)
	return out
}

// offend advances r's offense history by one, reporting whether the count
// just reached suspendAfter and flipped the suspension recommendation
// (res, r's ring entry).
func (s *Store) offend(res *resident, r *record, suspendAfter int) bool {
	r.offenses++
	if res.flags&flagSuspended != 0 || suspendAfter <= 0 || r.offenses < suspendAfter {
		return false
	}
	res.flags |= flagSuspended
	s.counts.Suspensions++
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
	s.counts.Verdicts++
	id, screenName := r.names()
	return &SessionVerdict{
		UserID:          id,
		ScreenName:      screenName,
		WindowStart:     fromNanos(win[0].at()),
		WindowEnd:       fromNanos(at),
		Tweets:          len(win),
		AggressiveShare: share,
		MeanConfidence:  confSum / float64(r.winAggr),
	}
}

// judgeEscalation fires when the user's EWMA aggression score holds above
// the threshold across a span longer than one session window, with the
// last-N verdict ring (recent) confirming the trend is not decaying.
func (s *Store) judgeEscalation(r *record, recent []entry, at int64) *EscalationVerdict {
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
	n := int(r.recentN)
	if n < len(recent)/2 {
		return nil
	}
	older, newer, aggr := 0, 0, 0
	half := n / 2
	for i := 0; i < n; i++ {
		// Logical index i=0 is the oldest retained slot.
		b := recent[(int(r.recentPos)-n+i+2*len(recent))%len(recent)]
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
	s.counts.Escalations++
	id, screenName := r.names()
	return &EscalationVerdict{
		UserID:      id,
		ScreenName:  screenName,
		Score:       r.score,
		Tweets:      r.tweets,
		Aggressive:  r.aggressive,
		RecentShare: float64(aggr) / float64(n),
		Sessions:    r.sessions,
		Offenses:    r.offenses,
		FirstSeen:   fromNanos(r.firstSeen),
		At:          fromNanos(at),
	}
}

// insert creates a record for id, whose hash is h, CLOCK-evicting one
// first when the stripe is at its cap.
//
//redvet:noalloc gate=UserstateObserveChurn
func (s *Store) insert(sh *stripe, h uint64, id string) int32 {
	if s.perCap > 0 && len(sh.ring) >= s.perCap {
		s.evictClock(sh)
	}
	return sh.add(h, id)
}

// evictClock runs the CLOCK hand: referenced records get a second chance
// (ref cleared), and the first unreferenced, unsuspended one is evicted.
// Suspended records carry the costliest state to forget (the
// repeated-offense recommendation), so they are passed over while any
// other victim exists; a ring full of suspended users still evicts one —
// the memory bound always wins. Bounded by two passes over the ring, it
// reads only the ring.
//
//redvet:noalloc gate=UserstateObserveChurn
func (s *Store) evictClock(sh *stripe) {
	fallback := -1 // ring position of the first unreferenced suspended record
	for steps := 0; steps < 2*len(sh.ring); steps++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		f := &sh.ring[sh.hand].flags
		if *f&flagRef != 0 {
			*f &^= flagRef
			sh.hand++
			continue
		}
		if *f&flagSuspended != 0 {
			if fallback < 0 {
				fallback = sh.hand
			}
			sh.hand++
			continue
		}
		sh.remove(sh.hand)
		s.counts.EvictionsCap++
		return
	}
	if fallback < 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		fallback = sh.hand
	}
	sh.remove(fallback)
	s.counts.EvictionsCap++
}

// sweep amortizes TTL retirement into Observe: examine a few ring slots
// (slots of them) at the hand, evicting records idle past the TTL (event
// time). The record just observed (slab slot current, which follows it
// when a removal moves it) is never a candidate, even when its tweet was
// late enough that its lastSeen is already past the TTL, and neither are
// suspended records
// — the repeated-offense recommendation must not silently expire; only
// cap pressure can reclaim it. It reads only the ring.
//
//redvet:noalloc gate=UserstateObserveChurn
func (s *Store) sweep(sh *stripe, current int32, slots int) {
	if s.ttl <= 0 || sh.maxTime <= s.ttl {
		return
	}
	cutoff := sh.maxTime - s.ttl
	for k := 0; k < slots && len(sh.ring) > 1; k++ {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		if e := sh.ring[sh.hand]; e.rec != current && e.flags&flagSuspended == 0 && e.lastSeen < cutoff {
			if from, to := sh.remove(sh.hand); from == current {
				current = to
			}
			s.counts.EvictionsTTL++
			continue // the swapped-in record now sits at the hand
		}
		sh.hand++
	}
}

// Lookup returns a copy of one user's state. It does not touch the CLOCK
// reference bit, so reads cannot perturb eviction order.
func (s *Store) Lookup(userID string) (Snapshot, bool) {
	if userID == "" {
		return Snapshot{}, false
	}
	st, i := s.find(userID)
	if i == noRec {
		return Snapshot{}, false
	}
	return st.snapshot(i), true
}

// snapshot copies slab slot i's state out of the stripe.
func (st *stripe) snapshot(i int32) Snapshot {
	r := st.slab.at(i)
	res := st.ring[r.ringIdx]
	sn := Snapshot{
		FirstSeen:      fromNanos(r.firstSeen),
		LastSeen:       fromNanos(res.lastSeen),
		Tweets:         r.tweets,
		Aggressive:     r.aggressive,
		WindowTweets:   len(r.window()),
		Offenses:       r.offenses,
		Suspended:      res.flags&flagSuspended != 0,
		Score:          r.score,
		CadenceSeconds: r.cadence,
		Sessions:       r.sessions,
		Escalations:    r.escalations,
	}
	sn.UserID, sn.ScreenName = r.names()
	if sn.WindowTweets > 0 {
		sn.WindowAggressiveShare = r.windowShare()
	}
	recent, n := st.slab.verdicts(i), int(r.recentN)
	for k := 0; k < n; k++ {
		b := recent[(int(r.recentPos)-n+k+2*len(recent))%len(recent)]
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
	st, i := s.find(userID)
	if i == noRec {
		return 0
	}
	return st.slab.at(i).offenses
}

// Suspended reports whether the user crossed the repeated-offense bar.
func (s *Store) Suspended(userID string) bool {
	if userID == "" {
		return false
	}
	st, i := s.find(userID)
	return i != noRec && st.ring[st.slab.at(i).ringIdx].flags&flagSuspended != 0
}

// SuspendedUsers returns all users recommended for suspension, sorted so
// the listing is stable for clients.
func (s *Store) SuspendedUsers() []string {
	var out []string
	for i := range s.stripes {
		st := &s.stripes[i]
		for _, e := range st.ring {
			if e.flags&flagSuspended != 0 {
				out = append(out, st.slab.at(e.rec).id.String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of tracked user records across all stripes.
func (s *Store) Len() int {
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].ring)
	}
	return n
}

// SessionVerdicts returns the total session verdicts emitted.
func (s *Store) SessionVerdicts() int64 { return s.counts.Verdicts }

// Escalations returns the total escalation verdicts emitted.
func (s *Store) Escalations() int64 { return s.counts.Escalations }

// Suspensions returns the total users newly recommended for suspension.
func (s *Store) Suspensions() int64 { return s.counts.Suspensions }

// Evictions returns records evicted by the cap and by the TTL sweep.
func (s *Store) Evictions() (cap, ttl int64) {
	return s.counts.EvictionsCap, s.counts.EvictionsTTL
}
