package serve

import (
	"strings"
	"time"

	"redhanded/internal/core"
)

// goldenEvents is the fixed event sequence behind testdata/sse_frames.golden.
// The golden bytes were captured from the /v1/alerts stream of the commit
// before the append encoder existed (json.Marshal + Fprintf per event), by
// publishing exactly these values into that commit's hub; the file is the
// wire-compatibility reference and must not be regenerated from this tree.
func goldenEvents() []any {
	est := time.FixedZone("EST", -5*3600)
	return []any{
		core.Alert{TweetID: "1", UserID: "42", ScreenName: "alice", Label: "hateful", Confidence: 0.875, Text: "plain ascii text"},
		core.Alert{TweetID: "2", UserID: "42", ScreenName: "alice", Label: "abusive", Confidence: 1, Text: "repeat offender", Offenses: 5, Suspended: true},
		core.Alert{TweetID: "3", UserID: "", ScreenName: "", Label: "hateful", Confidence: 0, Text: ""},
		core.Alert{TweetID: "4", UserID: "7", ScreenName: `q"uo\te`, Label: "abusive", Confidence: 0.30000000000000004,
			Text: "<script>alert('x') && \"y\"</script>\n\ttab\rcr\b\f\x00\x1f\x7f"},
		core.Alert{TweetID: "5", UserID: "8", ScreenName: "ünï", Label: "hateful", Confidence: 1e-7,
			Text: "line\u2028sep\u2029par café \U0001F621 lone\x80byte \xff\xfe end\xc3"},
		core.Alert{TweetID: "6", UserID: "9", ScreenName: "big", Label: "hateful", Confidence: 1e21, Text: strings.Repeat("spam & eggs ", 400), Offenses: 1},
		core.Alert{TweetID: "7", UserID: "9", ScreenName: "big", Label: "hateful", Confidence: 123456789.125, Text: "x", Suspended: true},
		core.SessionVerdict{UserID: "42", ScreenName: "alice",
			WindowStart: time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC), WindowEnd: time.Date(2020, 6, 1, 12, 59, 59, 123456789, time.UTC),
			Tweets: 7, AggressiveShare: 0.7142857142857143, MeanConfidence: 0.9},
		core.SessionVerdict{UserID: "<7>", ScreenName: "a&b",
			WindowStart: time.Date(1999, 12, 31, 23, 59, 59, 500000000, est), WindowEnd: time.Date(2000, 1, 1, 0, 59, 59, 0, est),
			Tweets: 3, AggressiveShare: 1, MeanConfidence: 2.5e-9},
		core.EscalationVerdict{UserID: "42", ScreenName: "alice", Score: 0.8125, Tweets: 120, Aggressive: 90, RecentShare: 0.75,
			Sessions: 4, Offenses: 6, FirstSeen: time.Date(2020, 5, 30, 8, 15, 0, 0, time.UTC), At: time.Date(2020, 6, 1, 13, 0, 0, 1000, time.UTC)},
		core.EscalationVerdict{UserID: "0", ScreenName: ""},
		core.Alert{TweetID: "8", UserID: "42", ScreenName: "alice", Label: "hateful", Confidence: 0.5, Text: "last"},
	}
}

// publishGolden feeds goldenEvents through the hub's sink methods, the way
// the pipelines do.
func publishGolden(h *alertHub) {
	for _, ev := range goldenEvents() {
		switch v := ev.(type) {
		case core.Alert:
			h.HandleAlert(v)
		case core.SessionVerdict:
			h.HandleSession(v)
		case core.EscalationVerdict:
			h.HandleEscalation(v)
		}
	}
}
