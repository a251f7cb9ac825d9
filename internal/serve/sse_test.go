package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/metrics"
)

// The three structs below are the SSE payloads as encoding/json rendered
// them before the append encoder; they survive here as its reference.
type alertEvent struct {
	Seq        int64   `json:"seq"`
	TweetID    string  `json:"tweet_id"`
	UserID     string  `json:"user_id"`
	ScreenName string  `json:"screen_name"`
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
	Text       string  `json:"text"`
	Offenses   int     `json:"offenses,omitempty"`
	Suspended  bool    `json:"suspended,omitempty"`
}

type sessionEvent struct {
	Seq int64 `json:"seq"`
	core.SessionVerdict
}

type escalationEvent struct {
	Seq int64 `json:"seq"`
	core.EscalationVerdict
}

// referenceFrame renders ev the way the per-event json.Marshal + Fprintf
// writer did; an event encoding/json refuses produced no frame.
func referenceFrame(ev *sseEvent) []byte {
	var kind string
	var payload any
	switch ev.kind {
	case kindAlert:
		a := ev.alert
		kind, payload = "alert", alertEvent{Seq: ev.seq, TweetID: a.TweetID, UserID: a.UserID, ScreenName: a.ScreenName,
			Label: a.Label, Confidence: a.Confidence, Text: a.Text, Offenses: a.Offenses, Suspended: a.Suspended}
	case kindSession:
		kind, payload = "session", sessionEvent{Seq: ev.seq, SessionVerdict: ev.session}
	case kindEscalation:
		kind, payload = "escalation", escalationEvent{Seq: ev.seq, EscalationVerdict: ev.escalation}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return nil
	}
	return fmt.Appendf(nil, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, kind, data)
}

func FuzzSSEEventEncoding(f *testing.F) {
	const zeroTimeUnix = -62135596800 // time.Time{}
	f.Add(uint8(0), int64(1), "1", "alice", "plain text", 0.875, 0.0, int64(0), false, int64(1590000000), int64(0), int32(0))
	f.Add(uint8(0), int64(2), "\x00\x01\x1f\b\f\n\r\t", `q"uo\te`, "<b>&amp;</b>\u2028\u2029", 0.0, 0.0, int64(3), true, int64(0), int64(0), int32(0))
	f.Add(uint8(0), int64(3), "lone\x80", "\xff", "end\xc3", 1.0, 0.0, int64(-1), false, int64(0), int64(0), int32(0))
	f.Add(uint8(0), int64(4), "4", "big", strings.Repeat("70 KB of text <&> ", 4000), 1e-7, 0.0, int64(1), false, int64(0), int64(0), int32(0))
	f.Add(uint8(0), int64(5), "5", "", "", 1e21, 0.0, int64(0), false, int64(0), int64(0), int32(0))
	f.Add(uint8(1), int64(6), "42", "alice", "", 0.7142857142857143, 0.9, int64(7), false, int64(1591012800), int64(123456789), int32(0))
	f.Add(uint8(1), int64(7), "<7>", "a&b", "", 1.0, 2.5e-9, int64(3), false, int64(946684799), int64(500000000), int32(-5*3600))
	f.Add(uint8(1), int64(8), "0", "", "", 0.0, 0.0, int64(0), false, int64(zeroTimeUnix), int64(0), int32(0))
	f.Add(uint8(2), int64(9), "42", "alice", "", 0.8125, 0.75, int64(120), false, int64(1591012800), int64(1000), int32(19800))
	f.Add(uint8(2), int64(10), "0", "", "", 1e21, 1e-7, int64(0), false, int64(zeroTimeUnix), int64(0), int32(0))
	f.Add(uint8(2), int64(11), "9", "far", "", 0.5, 0.5, int64(1), false, int64(1)<<40, int64(0), int32(30*3600)) // year and zone beyond RFC 3339
	f.Fuzz(func(t *testing.T, kind uint8, seq int64, id, name, text string, f1, f2 float64, n int64, flag bool, sec, nsec int64, zone int32) {
		at := time.Unix(sec, nsec).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("", int(zone)))
		}
		ev := sseEvent{seq: seq, kind: eventKind(kind % 3)}
		switch ev.kind {
		case kindAlert:
			ev.alert = core.Alert{TweetID: id, UserID: name, ScreenName: name, Label: id, Confidence: f1, Text: text, Offenses: int(n), Suspended: flag}
		case kindSession:
			ev.session = core.SessionVerdict{UserID: id, ScreenName: name, WindowStart: at, WindowEnd: at.Add(time.Duration(n)),
				Tweets: int(n), AggressiveShare: f1, MeanConfidence: f2}
		case kindEscalation:
			ev.escalation = core.EscalationVerdict{UserID: id, ScreenName: name, Score: f1, Tweets: n, Aggressive: n / 2, RecentShare: f2,
				Sessions: n / 3, Offenses: int(n % 7), FirstSeen: at.Add(-time.Duration(n)), At: at}
		}
		got, want := appendFrame(nil, &ev), referenceFrame(&ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("append encoder diverged from encoding/json\n got: %q\nwant: %q", got, want)
		}
	})
}

// fakeStream is an http.ResponseWriter + Flusher that records what a
// stream handler sends, so tests can act between its flushes. Like a real
// response it delivers written bytes to the body only on Flush.
type fakeStream struct {
	onFlush func(n int) // runs inside the n-th Flush (1 is the preamble's), on the handler's goroutine

	mu      sync.Mutex
	header  http.Header
	pending bytes.Buffer
	body    bytes.Buffer
	writes  int
	flushes int
	flushed chan struct{} // capacity 1: wakes await after a flush
}

func newFakeStream() *fakeStream {
	return &fakeStream{header: make(http.Header), flushed: make(chan struct{}, 1)}
}

func (fs *fakeStream) Header() http.Header { return fs.header }
func (fs *fakeStream) WriteHeader(int)     {}

func (fs *fakeStream) Write(p []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes++
	return fs.pending.Write(p)
}

func (fs *fakeStream) Flush() {
	fs.mu.Lock()
	fs.pending.WriteTo(&fs.body)
	fs.flushes++
	n := fs.flushes
	fs.mu.Unlock()
	if fs.onFlush != nil {
		fs.onFlush(n)
	}
	select {
	case fs.flushed <- struct{}{}:
	default:
	}
}

// snapshot returns the flushed body with the write and flush counts.
func (fs *fakeStream) snapshot() (body string, writes, flushes int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.body.String(), fs.writes, fs.flushes
}

// await blocks until cond holds for the stream's body, rechecking after
// every flush.
func (fs *fakeStream) await(t *testing.T, what string, cond func(body string) bool) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		if body, _, _ := fs.snapshot(); cond(body) {
			return
		}
		select {
		case <-fs.flushed:
		case <-timeout:
			body, _, flushes := fs.snapshot()
			t.Fatalf("timed out waiting for %s; %d flushes, body:\n%s", what, flushes, body)
		}
	}
}

// frameIDs returns the id: of every event frame in an SSE body, in order.
func frameIDs(t *testing.T, body string) []int64 {
	t.Helper()
	var ids []int64
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			id, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			ids = append(ids, id)
		}
	}
	return ids
}

// startStream runs handleAlerts against fs on its own goroutine. cancel
// ends the request; done closes when the handler has returned.
func startStream(s *Server, fs *fakeStream) (cancel context.CancelFunc, done <-chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/alerts", nil).WithContext(ctx)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s.handleAlerts(fs, req)
	}()
	return cancel, finished
}

// stalledServer is a one-shard server whose shard loop never starts: the
// tests below publish into its hub themselves.
func stalledServer() *Server {
	opts := testOptions()
	opts.Shards = 1
	return newServer(opts, false)
}

func testAlert(id string) core.Alert {
	return core.Alert{TweetID: id, UserID: "42", ScreenName: "alice", Label: "hateful", Confidence: 0.9,
		Text: "you are a worthless idiot and i hate you"}
}

// TestSSESubscribeBeforePreamble: "connected" means subscribed. An alert
// published while the preamble is being flushed must reach the stream.
func TestSSESubscribeBeforePreamble(t *testing.T) {
	s := stalledServer()
	fs := newFakeStream()
	fs.onFlush = func(n int) {
		if n == 1 {
			s.hub.HandleAlert(testAlert("in-the-window"))
		}
	}
	cancel, done := startStream(s, fs)
	fs.await(t, "the alert published during the preamble flush", func(body string) bool {
		return strings.Contains(body, `"tweet_id":"in-the-window"`)
	})
	cancel()
	<-done
	if body, _, _ := fs.snapshot(); !strings.HasPrefix(body, ": connected\n\n") {
		t.Fatalf("stream does not open with the preamble:\n%s", body)
	}
}

// TestSSEGoldenFrames pins the bytes inside the HTTP chunks to what the
// per-event json.Marshal writer of the previous commit produced for the
// same events (testdata/sse_frames.golden, see goldenEvents).
func TestSSEGoldenFrames(t *testing.T) {
	golden, err := os.ReadFile("testdata/sse_frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	s := stalledServer()
	fs := newFakeStream()
	fs.onFlush = func(n int) {
		if n == 1 {
			publishGolden(s.hub)
		}
	}
	cancel, done := startStream(s, fs)
	fs.await(t, "the golden frames", func(body string) bool { return len(body) >= len(golden) })
	cancel()
	<-done
	if body, _, _ := fs.snapshot(); body != string(golden) {
		t.Fatalf("stream bytes differ from the golden\n got: %q\nwant: %q", body, golden)
	}
}

// TestSSECoalescesBacklog: events already queued when the writer wakes go
// out in one write and flush; a lone event goes out at once, on its own.
func TestSSECoalescesBacklog(t *testing.T) {
	const backlog = 64
	s := stalledServer()
	fs := newFakeStream()
	fs.onFlush = func(n int) {
		if n == 1 {
			for i := 0; i < backlog; i++ {
				s.hub.HandleAlert(testAlert(fmt.Sprint(i)))
			}
		}
	}
	cancel, done := startStream(s, fs)
	defer cancel()
	fs.await(t, "the backlog", func(body string) bool { return strings.Count(body, "\nevent: alert\n") == backlog })
	body, writes, flushes := fs.snapshot()
	if flushes-1 > 2 || writes != flushes {
		t.Fatalf("%d queued events took %d writes and %d flushes after the preamble, want at most 2 of each", backlog, writes-1, flushes-1)
	}
	for i, id := range frameIDs(t, body) {
		if id != int64(i+1) {
			t.Fatalf("frame %d carries id %d, want %d (seq order)", i, id, i+1)
		}
	}

	s.hub.HandleAlert(testAlert("lone"))
	fs.await(t, "the lone event", func(body string) bool { return strings.Contains(body, `"tweet_id":"lone"`) })
	if _, _, after := fs.snapshot(); after != flushes+1 {
		t.Fatalf("one event took %d flushes, want 1", after-flushes)
	}
	cancel()
	<-done // the writer observes a flush after making it
	if h := s.hub.flushEvents; h.Count() != int64(flushes) || h.Sum() != backlog+1 {
		t.Fatalf("redhanded_sse_flush_events saw %v events in %d flushes, want %d in %d", h.Sum(), h.Count(), backlog+1, flushes)
	}
}

// TestSSEDrainDeliversQueued: Drain ends a stream only after the writer
// has written what the shards left in its channel — here with the drain
// signal and the queued events both ready when the writer first looks, the
// interleaving in which a select that honours the signal first loses them.
func TestSSEDrainDeliversQueued(t *testing.T) {
	const queued = 100
	for round := 0; round < 20; round++ {
		s := stalledServer()
		fs := newFakeStream()
		fs.onFlush = func(n int) {
			if n == 1 {
				for i := 0; i < queued; i++ {
					s.hub.HandleAlert(testAlert(fmt.Sprint(i)))
				}
				if err := s.Drain(context.Background()); err != nil {
					t.Error(err)
				}
			}
		}
		cancel, done := startStream(s, fs)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Drain did not end the stream")
		}
		cancel()
		body, _, _ := fs.snapshot()
		if got := len(frameIDs(t, body)); got != queued {
			t.Fatalf("round %d: stream ended after %d of %d queued events", round, got, queued)
		}
		if got := s.hub.streamed.Value(); got != queued {
			t.Fatalf("round %d: streamed counter = %d, want %d", round, got, queued)
		}
	}
}

// TestSSEConcurrentPublishersSeqOrder drives two publishers into two
// subscribers (run it under -race): whatever a subscriber receives, it
// receives in strictly increasing id order.
func TestSSEConcurrentPublishersSeqOrder(t *testing.T) {
	const perPublisher = 2000
	s := stalledServer()
	streams := []*fakeStream{newFakeStream(), newFakeStream()}
	var handlers []<-chan struct{}
	for _, fs := range streams {
		cancel, done := startStream(s, fs)
		defer cancel()
		handlers = append(handlers, done)
	}
	for _, fs := range streams {
		fs.await(t, "the preamble", func(body string) bool { return body != "" })
	}

	var publishers sync.WaitGroup
	for p := 0; p < 2; p++ {
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			for i := 0; i < perPublisher; i++ {
				if i%10 == 0 {
					s.hub.HandleSession(core.SessionVerdict{UserID: fmt.Sprint(p), Tweets: i})
				} else {
					s.hub.HandleAlert(testAlert(fmt.Sprint(p, "-", i)))
				}
			}
		}()
	}
	publishers.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var received int64
	for i, fs := range streams {
		<-handlers[i]
		body, _, _ := fs.snapshot()
		ids := frameIDs(t, body)
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] {
				t.Fatalf("subscriber %d: id %d follows id %d", i, ids[j], ids[j-1])
			}
		}
		received += int64(len(ids))
	}
	if streamed, dropped := s.hub.streamed.Value(), s.hub.dropped.Value(); received != streamed || streamed+dropped != 2*2*perPublisher {
		t.Fatalf("subscribers read %d frames; hub streamed %d and dropped %d of %d", received, streamed, dropped, 2*2*perPublisher)
	}
}

// TestAlertEgressZeroAlloc: from Alerter.Consider through the hub to the
// encoded frame, a steady-state alert allocates nothing.
func TestAlertEgressZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	hub := newAlertHub(8, metrics.NewRegistry())
	alerter := core.NewPipeline(core.DefaultOptions()).Alerter()
	alerter.Subscribe(hub)
	ch := hub.subscribe()
	tw := makeTweet("1", "42", "you are a worthless idiot and i hate you", "")
	var buf []byte
	egress := func() {
		if !alerter.Consider(&tw, "hateful", 0.9) {
			t.Fatal("no alert raised")
		}
		ev := <-ch
		buf, _ = drainFrames(buf[:0], &ev, ch)
	}
	egress() // first use creates the user's record and grows buf
	if allocs := testing.AllocsPerRun(200, egress); allocs != 0 {
		t.Fatalf("alert egress allocates %v objects per alert, want 0", allocs)
	}
	if !bytes.Contains(buf, []byte(`"tweet_id":"1","user_id":"42"`)) {
		t.Fatalf("unexpected frame: %s", buf)
	}
}

// countingStream discards what it is given and counts the writes.
type countingStream struct{ writes int }

func (c *countingStream) Header() http.Header         { return nil }
func (c *countingStream) WriteHeader(int)             {}
func (c *countingStream) Write(p []byte) (int, error) { c.writes++; return len(p), nil }
func (c *countingStream) Flush()                      {}

// BenchmarkSSEEmit measures hub publish + one writer wake-up per
// iteration with `backlog` events queued, socket excluded: ns/event is the
// egress CPU per event and writes/event what coalescing makes of the
// write(2) + flush count (1 at backlog=1, 1/64 at backlog=64).
func BenchmarkSSEEmit(b *testing.B) {
	for _, backlog := range []int{1, 64} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			hub := newAlertHub(backlog, metrics.NewRegistry())
			ch := hub.subscribe()
			w := &countingStream{}
			st := sseStream{w: w, fl: w, ch: ch, flushEvents: hub.flushEvents}
			alert := testAlert("1266852160581812224")
			b.ReportAllocs()
			for b.Loop() {
				for i := 0; i < backlog; i++ {
					hub.HandleAlert(alert)
				}
				ev := <-ch
				if err := st.emit(&ev); err != nil {
					b.Fatal(err)
				}
			}
			events := float64(b.N) * float64(backlog)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(w.writes)/events, "writes/event")
		})
	}
}

// TestSSEStreamOverHTTP reads the stream through a real client and socket:
// several events may share an HTTP chunk, and the blank line still frames
// each one.
func TestSSEStreamOverHTTP(t *testing.T) {
	s := stalledServer()
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/alerts", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || line != ": connected\n" {
		t.Fatalf("preamble = %q, %v", line, err)
	}
	// The preamble has arrived, so the handler is subscribed.
	publishGolden(s.hub)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r) // to EOF: Drain ends the stream
	if err != nil {
		t.Fatalf("stream did not end on Drain: %v", err)
	}
	golden, err := os.ReadFile("testdata/sse_frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := ": connected\n" + string(rest); got != string(golden) {
		t.Fatalf("client read\n%q\nwant\n%q", got, golden)
	}
}
