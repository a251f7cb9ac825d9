package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// makeTweetAt is makeTweet with a controllable timestamp, so session
// windows and escalation spans actually advance.
func makeTweetAt(id, user, text, label string, at time.Time) twitterdata.Tweet {
	tw := makeTweet(id, user, text, label)
	tw.CreatedAt = at.Format(twitterdata.TimeLayout)
	return tw
}

func TestUserEndpoint(t *testing.T) {
	opts := testOptions()
	s := NewServer(opts)
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	at := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	var tweets []twitterdata.Tweet
	for i := 0; i < 6; i++ {
		tweets = append(tweets, makeTweetAt(fmt.Sprint(i), "4242", "hello there friend", "", at.Add(time.Duration(i)*time.Minute)))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, int64(len(tweets)))

	// Known user: 200 with the snapshot, owned by ShardFor's shard.
	resp, err = http.Get(ts.URL + "/v1/users/4242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/users/4242 = %d", resp.StatusCode)
	}
	var ur UserResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Shard != ShardFor("4242", s.Shards()) {
		t.Fatalf("user served from shard %d, want %d", ur.Shard, ShardFor("4242", s.Shards()))
	}
	if ur.UserID != "4242" || ur.Tweets != 6 || ur.WindowTweets != 6 {
		t.Fatalf("snapshot = %+v", ur.Snapshot)
	}
	if ur.ScreenName != "u4242" || ur.LastSeen.IsZero() {
		t.Fatalf("snapshot metadata = %+v", ur.Snapshot)
	}

	// Unknown user: 404.
	resp, err = http.Get(ts.URL + "/v1/users/never-seen")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/users/never-seen = %d, want 404", resp.StatusCode)
	}
}

// TestEscalationAndSessionSSE drives a repeat offender through the
// server and asserts that session and escalation verdicts reach the
// /v1/alerts stream as their own SSE event kinds.
func TestEscalationAndSessionSSE(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	opts.Pipeline.AlertThreshold = 0.1
	opts.Pipeline.Users = userstate.Config{
		Session: userstate.SessionConfig{Window: time.Hour, MinTweets: 3, AggressiveShare: 0.5, Cooldown: 10 * time.Minute},
		Escalation: userstate.EscalationConfig{
			Threshold: 0.3, MinTweets: 6, MinSpan: 20 * time.Minute, Cooldown: 10 * time.Minute,
		},
	}
	s := NewServer(opts)
	defer s.Drain(context.Background())
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

	// Teach the model the stream is hateful; once predictions flip
	// aggressive, the offender's window and EWMA score fill up.
	at := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	var tweets []twitterdata.Tweet
	for i := 0; i < 120; i++ {
		tweets = append(tweets, makeTweetAt(fmt.Sprint(i), "666",
			"you are a worthless idiot and i hate you", twitterdata.LabelHateful,
			at.Add(time.Duration(i)*2*time.Minute)))
	}
	post, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()

	// Read the stream until both verdict kinds have arrived.
	sc := bufio.NewScanner(resp.Body)
	kinds := map[string]string{} // kind -> first data payload
	event := ""
	for sc.Scan() && (kinds["session"] == "" || kinds["escalation"] == "") {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") && event != "" {
			if kinds[event] == "" {
				kinds[event] = strings.TrimPrefix(line, "data: ")
			}
			event = ""
		}
	}
	if kinds["session"] == "" || kinds["escalation"] == "" {
		t.Fatalf("missing verdict events; got kinds %v (err %v)", kinds, sc.Err())
	}

	var sess struct {
		Seq             int64   `json:"seq"`
		UserID          string  `json:"user_id"`
		Tweets          int     `json:"tweets"`
		AggressiveShare float64 `json:"aggressive_share"`
	}
	if err := json.Unmarshal([]byte(kinds["session"]), &sess); err != nil {
		t.Fatalf("session payload %q: %v", kinds["session"], err)
	}
	if sess.UserID != "666" || sess.Tweets < 3 || sess.AggressiveShare < 0.5 || sess.Seq == 0 {
		t.Fatalf("session event = %+v", sess)
	}
	var esc struct {
		Seq    int64   `json:"seq"`
		UserID string  `json:"user_id"`
		Score  float64 `json:"score"`
		Tweets int64   `json:"tweets"`
	}
	if err := json.Unmarshal([]byte(kinds["escalation"]), &esc); err != nil {
		t.Fatalf("escalation payload %q: %v", kinds["escalation"], err)
	}
	if esc.UserID != "666" || esc.Score < 0.3 || esc.Tweets < 6 {
		t.Fatalf("escalation event = %+v", esc)
	}

	// The verdicts also appear on /v1/stats.
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st Stats
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SessionVerdicts == 0 || st.Escalations == 0 || st.ActiveUsers == 0 {
		t.Fatalf("stats missing user-state activity: %+v", st)
	}
}

// TestServerUserCapDividedAcrossShards checks that the configured
// MaxUsers budget bounds the whole server, not each shard.
func TestServerUserCapDividedAcrossShards(t *testing.T) {
	opts := testOptions()
	opts.Shards = 4
	opts.Pipeline.Users.MaxUsers = 200
	opts.Pipeline.Users.TTL = -1
	s := NewServer(opts)
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	at := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	total := 0
	for batch := 0; batch < 8; batch++ {
		var tweets []twitterdata.Tweet
		for i := 0; i < 250; i++ {
			u := fmt.Sprintf("user-%d-%d", batch, i)
			tweets = append(tweets, makeTweetAt(u, u, "hello world", "", at.Add(time.Duration(total)*time.Second)))
			total++
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitProcessed(t, s, int64(total))

	active := 0
	var evictions int64
	for i := 0; i < s.Shards(); i++ {
		c := s.Pipeline(i).Counts()
		active += c.ActiveUsers
		evictions += c.EvictionsCap + c.EvictionsTTL
	}
	if active > 200 {
		t.Fatalf("server-wide user cap breached: %d records > 200", active)
	}
	if evictions == 0 {
		t.Fatalf("2000 distinct users produced no evictions under a 200 cap")
	}
}

// TestCheckpointRestoresUserState round-trips offense history and
// escalation scores through the sharded server checkpoint.
func TestCheckpointRestoresUserState(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Pipeline.AlertThreshold = 0.1

	s := NewServer(opts)
	ts := httptest.NewServer(s)
	at := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
	var tweets []twitterdata.Tweet
	for i := 0; i < 80; i++ {
		tweets = append(tweets, makeTweetAt(fmt.Sprint(i), "offender",
			"you are a worthless idiot and i hate you", twitterdata.LabelHateful,
			at.Add(time.Duration(i)*time.Minute)))
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjson(t, tweets))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitProcessed(t, s, int64(len(tweets)))

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, ok := s.Pipeline(ShardFor("offender", s.Shards())).LookupUser("offender")
	if !ok || before.Tweets != 80 {
		t.Fatalf("offender record missing before checkpoint: %+v", before)
	}
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	restored := NewServer(opts)
	defer restored.Drain(context.Background())
	if err := restored.Restore(dir); err != nil {
		t.Fatal(err)
	}
	after, ok := restored.Pipeline(ShardFor("offender", restored.Shards())).LookupUser("offender")
	if !ok {
		t.Fatalf("offender record lost through checkpoint")
	}
	if after.Tweets != before.Tweets || after.Score != before.Score ||
		after.Offenses != before.Offenses || after.Sessions != before.Sessions {
		t.Fatalf("user state diverged through checkpoint:\nbefore %+v\nafter  %+v", before, after)
	}

	// The restored server keeps answering GET /v1/users.
	ts2 := httptest.NewServer(restored)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/users/offender")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/users/offender after restore = %d", resp.StatusCode)
	}
	var ur UserResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Tweets != 80 {
		t.Fatalf("restored snapshot = %+v", ur.Snapshot)
	}
}
