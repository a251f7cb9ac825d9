package serve

import (
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
)

// eventKind names the SSE event type of a frame.
type eventKind uint8

const (
	kindAlert eventKind = iota
	kindSession
	kindEscalation
)

// sseEvent is one frame on the /v1/alerts stream, carried by value from
// the publishing shard to each subscriber's writer: the kind selects which
// payload is set. A flat union rather than an interface keeps the hand-off
// free of heap boxes; the writer encodes it (appendFrame).
type sseEvent struct {
	seq        int64
	kind       eventKind
	alert      core.Alert
	session    core.SessionVerdict
	escalation core.EscalationVerdict
}

// alertHub is a fan-out sink for the per-shard pipelines: alerts (via
// core.AlertSink) and session/escalation verdicts (via core.VerdictSink)
// publish into it, and each SSE connection subscribes to a buffered
// channel. Delivery is best-effort — a subscriber that cannot keep up
// loses events (counted) instead of stalling the classify hot path.
type alertHub struct {
	mu          sync.Mutex
	subs        []chan sseEvent
	buffer      int
	seq         int64
	streamed    *metrics.Counter
	dropped     *metrics.Counter
	flushEvents *metrics.Histogram
}

func newAlertHub(buffer int, reg *metrics.Registry) *alertHub {
	h := &alertHub{
		buffer:   buffer,
		streamed: reg.Counter("redhanded_alerts_streamed_total", "Events delivered to SSE subscribers.", nil),
		dropped:  reg.Counter("redhanded_alerts_dropped_total", "Events dropped because a subscriber buffer was full.", nil),
		flushEvents: reg.Histogram("redhanded_sse_flush_events",
			"Events a subscriber's writer coalesced into one write and flush.", drainBuckets, nil),
	}
	return h
}

// publish stamps the event with the next sequence number and fans it out
// to every subscriber. It runs on a shard goroutine, so it must never
// block.
func (h *alertHub) publish(ev *sseEvent) {
	h.mu.Lock()
	h.seq++
	ev.seq = h.seq
	for _, ch := range h.subs {
		select {
		case ch <- *ev:
			h.streamed.Inc()
		default:
			h.dropped.Inc()
		}
	}
	h.mu.Unlock()
}

// HandleAlert implements core.AlertSink.
func (h *alertHub) HandleAlert(a core.Alert) {
	ev := sseEvent{kind: kindAlert, alert: a}
	h.publish(&ev)
}

// HandleSession implements core.VerdictSink.
func (h *alertHub) HandleSession(v core.SessionVerdict) {
	ev := sseEvent{kind: kindSession, session: v}
	h.publish(&ev)
}

// HandleEscalation implements core.VerdictSink.
func (h *alertHub) HandleEscalation(v core.EscalationVerdict) {
	ev := sseEvent{kind: kindEscalation, escalation: v}
	h.publish(&ev)
}

func (h *alertHub) subscribe() chan sseEvent {
	// h.buffer (alertBuffer in a server): how far a writer may fall behind
	// the shards before its events are dropped.
	ch := make(chan sseEvent, h.buffer)
	h.mu.Lock()
	h.subs = append(h.subs, ch)
	h.mu.Unlock()
	return ch
}

func (h *alertHub) unsubscribe(ch chan sseEvent) {
	h.mu.Lock()
	if i := slices.Index(h.subs, ch); i >= 0 {
		h.subs = slices.Delete(h.subs, i, i+1)
	}
	h.mu.Unlock()
}

// Subscribers returns the live subscriber count.
func (h *alertHub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// sseHeartbeat keeps idle connections alive through proxies.
const sseHeartbeat = 15 * time.Second

// sseFlushBudget caps the bytes a writer encodes before it writes and
// flushes: about a hundred alerts, so a backlog goes out in a few large
// writes while the first event of a batch waits for at most one buffer of
// encoding. It is a constant because nothing a deployment can observe
// would tell it to pick another value — how far a subscriber may fall
// behind is alertBuffer, and a frame larger than the budget simply
// goes out on its own.
const sseFlushBudget = 32 << 10

var (
	ssePreamble       = []byte(": connected\n\n")
	sseHeartbeatFrame = []byte(": heartbeat\n\n")
)

// sseStream is one subscriber's writer: the response it writes to, the
// channel the hub feeds, and the encode buffer reused across wake-ups.
type sseStream struct {
	w           http.ResponseWriter
	fl          http.Flusher
	ch          <-chan sseEvent
	buf         []byte
	flushEvents *metrics.Histogram
}

// emit writes first and whatever else is already queued behind it as one
// Write and one Flush.
func (st *sseStream) emit(first *sseEvent) error {
	var n int
	st.buf, n = drainFrames(st.buf[:0], first, st.ch)
	if _, err := st.w.Write(st.buf); err != nil {
		return err
	}
	st.fl.Flush()
	st.flushEvents.Observe(float64(n))
	if cap(st.buf) > 2*sseFlushBudget {
		st.buf = nil // one oversized frame must not pin its buffer for the life of the connection
	}
	return nil
}

// drainFrames encodes first and then every event already waiting in ch,
// stopping once buf holds sseFlushBudget bytes, and returns the buffer and
// the number of events taken. It never waits for a batch to form (the
// shape of shard.run's drain): an idle stream sends each event on its own.
//
//redvet:noalloc gate=SSEEmit
func drainFrames(buf []byte, first *sseEvent, ch <-chan sseEvent) ([]byte, int) {
	buf = appendFrame(buf, first)
	n := 1
	for len(buf) < sseFlushBudget {
		select {
		case ev := <-ch:
			buf = appendFrame(buf, &ev)
			n++
		default:
			return buf, n
		}
	}
	return buf, n
}

// handleAlerts streams alerts plus session/escalation verdicts as
// Server-Sent Events (event kinds "alert", "session", "escalation")
// until the client disconnects or the server has drained.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the preamble, so a client that has read
	// ": connected" misses no event published after it.
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(ssePreamble); err != nil {
		return
	}
	fl.Flush()

	st := sseStream{w: w, fl: fl, ch: ch, flushEvents: s.hub.flushEvents}
	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	for {
		select {
		case ev := <-ch:
			if st.emit(&ev) != nil {
				return
			}
		case <-ticker.C:
			if _, err := w.Write(sseHeartbeatFrame); err != nil {
				return
			}
			fl.Flush()
		case <-s.drained:
			// The shard loops have exited, so nothing publishes any more:
			// write what they left queued, then end the stream so graceful
			// HTTP shutdown (which waits for in-flight requests) is not
			// held open forever.
			for len(ch) > 0 {
				ev := <-ch
				if st.emit(&ev) != nil {
					return
				}
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// appendFrame appends one SSE frame — id, event kind, JSON payload, blank
// line — byte for byte as encoding/json renders the payload (sse_test.go
// keeps the structs it is checked against). An event encoding/json would
// refuse (a non-finite float, a time outside RFC 3339) appends nothing.
//
//redvet:noalloc gate=SSEEmit
func appendFrame(b []byte, ev *sseEvent) []byte {
	if !ev.encodable() {
		return b
	}
	b = append(b, "id: "...)
	b = strconv.AppendInt(b, ev.seq, 10)
	switch ev.kind {
	case kindAlert:
		a := &ev.alert
		b = append(b, "\nevent: alert\ndata: {\"seq\":"...)
		b = strconv.AppendInt(b, ev.seq, 10)
		b = append(b, `,"tweet_id":`...)
		b = appendJSONString(b, a.TweetID)
		b = append(b, `,"user_id":`...)
		b = appendJSONString(b, a.UserID)
		b = append(b, `,"screen_name":`...)
		b = appendJSONString(b, a.ScreenName)
		b = append(b, `,"label":`...)
		b = appendJSONString(b, a.Label)
		b = append(b, `,"confidence":`...)
		b = appendJSONFloat(b, a.Confidence)
		b = append(b, `,"text":`...)
		b = appendJSONString(b, a.Text)
		if a.Offenses != 0 {
			b = append(b, `,"offenses":`...)
			b = strconv.AppendInt(b, int64(a.Offenses), 10)
		}
		if a.Suspended {
			b = append(b, `,"suspended":true`...)
		}
	case kindSession:
		v := &ev.session
		b = append(b, "\nevent: session\ndata: {\"seq\":"...)
		b = strconv.AppendInt(b, ev.seq, 10)
		b = append(b, `,"user_id":`...)
		b = appendJSONString(b, v.UserID)
		b = append(b, `,"screen_name":`...)
		b = appendJSONString(b, v.ScreenName)
		b = append(b, `,"window_start":`...)
		b = appendJSONTime(b, v.WindowStart)
		b = append(b, `,"window_end":`...)
		b = appendJSONTime(b, v.WindowEnd)
		b = append(b, `,"tweets":`...)
		b = strconv.AppendInt(b, int64(v.Tweets), 10)
		b = append(b, `,"aggressive_share":`...)
		b = appendJSONFloat(b, v.AggressiveShare)
		b = append(b, `,"mean_confidence":`...)
		b = appendJSONFloat(b, v.MeanConfidence)
	case kindEscalation:
		v := &ev.escalation
		b = append(b, "\nevent: escalation\ndata: {\"seq\":"...)
		b = strconv.AppendInt(b, ev.seq, 10)
		b = append(b, `,"user_id":`...)
		b = appendJSONString(b, v.UserID)
		b = append(b, `,"screen_name":`...)
		b = appendJSONString(b, v.ScreenName)
		b = append(b, `,"score":`...)
		b = appendJSONFloat(b, v.Score)
		b = append(b, `,"tweets":`...)
		b = strconv.AppendInt(b, v.Tweets, 10)
		b = append(b, `,"aggressive":`...)
		b = strconv.AppendInt(b, v.Aggressive, 10)
		b = append(b, `,"recent_share":`...)
		b = appendJSONFloat(b, v.RecentShare)
		b = append(b, `,"session_verdicts":`...)
		b = strconv.AppendInt(b, v.Sessions, 10)
		b = append(b, `,"offenses":`...)
		b = strconv.AppendInt(b, int64(v.Offenses), 10)
		b = append(b, `,"first_seen":`...)
		b = appendJSONTime(b, v.FirstSeen)
		b = append(b, `,"at":`...)
		b = appendJSONTime(b, v.At)
	}
	b = append(b, "}\n\n"...)
	return b
}

// encodable reports whether encoding/json would marshal the event's
// payload: it rejects NaN and ±Inf, and times whose year or zone offset
// RFC 3339 cannot express.
func (ev *sseEvent) encodable() bool {
	switch ev.kind {
	case kindAlert:
		return finite(ev.alert.Confidence)
	case kindSession:
		v := &ev.session
		return finite(v.AggressiveShare) && finite(v.MeanConfidence) &&
			jsonTimeOK(v.WindowStart) && jsonTimeOK(v.WindowEnd)
	case kindEscalation:
		v := &ev.escalation
		return finite(v.Score) && finite(v.RecentShare) &&
			jsonTimeOK(v.FirstSeen) && jsonTimeOK(v.At)
	}
	return false
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func jsonTimeOK(t time.Time) bool {
	year := t.Year()
	_, offset := t.Zone()
	return year >= 0 && year <= 9999 && offset > -24*3600 && offset < 24*3600
}

// jsonSafe marks the ASCII bytes encoding/json copies through unescaped
// with HTML escaping on: everything printable but `"`, `\`, `<`, `>`, `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: short escapes for `"`, `\` and \b \f \n \r \t,
// \u00XX for the other control bytes and `<`, `>`, `&`, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by \ufffd.
//
//redvet:noalloc gate=SSEEmit
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	b = append(b, '"')
	return b
}

// appendJSONFloat appends f in encoding/json's float64 format: the
// shortest representation that round-trips, in exponent form below 1e-6
// and from 1e21 up, with a two-digit exponent's leading zero dropped.
//
//redvet:noalloc gate=SSEEmit
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONTime appends t as encoding/json does: a quoted RFC 3339
// timestamp with nanoseconds, trailing zeros removed.
//
//redvet:noalloc gate=SSEEmit
func appendJSONTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')
	return b
}
