// Package twitterdata provides the data substrate of the reproduction: the
// Twitter-API-shaped tweet model with its JSON codec, plus synthetic
// dataset generators calibrated to the class-conditional statistics the
// paper reports for its three datasets (the 86k aggression dataset and the
// Sarcasm and Offensive datasets of §V-F). The original crowdsourced
// datasets are not redistributable; the generators emit real tweet text and
// profile payloads so the entire preprocessing and feature-extraction code
// path is exercised end to end.
package twitterdata

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// TimeLayout is Twitter's created_at timestamp format.
const TimeLayout = "Mon Jan 02 15:04:05 -0700 2006"

// Label values used by the aggression dataset (after removing spam, the
// paper keeps normal, abusive, and hateful).
const (
	LabelNormal  = "normal"
	LabelAbusive = "abusive"
	LabelHateful = "hateful"
)

// User carries the profile fields the feature extractor consumes, mirroring
// the Twitter API payload.
//
//redvet:wire
type User struct {
	IDStr          string `json:"id_str"`
	ScreenName     string `json:"screen_name"`
	CreatedAt      string `json:"created_at"`
	FollowersCount int    `json:"followers_count"`
	FriendsCount   int    `json:"friends_count"`
	StatusesCount  int    `json:"statuses_count"`
	ListedCount    int    `json:"listed_count"`
}

// Tweet is one stream element: the JSON payload of the Twitter Streaming
// API plus, for the labeled stream, a class-label attribute. It is wire
// format three ways — the JSONL dataset files, the NDJSON records of the
// ingest log (the same bytes a client sent), and the gob cluster frames —
// so literals must stay keyed.
//
//redvet:wire
type Tweet struct {
	IDStr     string `json:"id_str"`
	Text      string `json:"text"`
	CreatedAt string `json:"created_at"`
	User      User   `json:"user"`
	// Label holds the annotation for labeled tweets ("" for unlabeled).
	Label string `json:"label,omitempty"`
	// Day is the 0-based collection day (the dataset spans 10 days).
	Day int `json:"day,omitempty"`
}

// IsLabeled reports whether the tweet carries an annotation.
func (t *Tweet) IsLabeled() bool { return t.Label != "" }

// PostedAt parses the tweet timestamp; the zero time is returned for
// malformed payloads.
func (t *Tweet) PostedAt() time.Time {
	ts, err := parseTime(t.CreatedAt)
	if err != nil {
		return time.Time{}
	}
	return ts
}

// AccountAgeDays returns the age of the posting account in days at posting
// time (0 when either timestamp is malformed or inconsistent).
func (t *Tweet) AccountAgeDays() float64 {
	posted := t.PostedAt()
	created, err := parseTime(t.User.CreatedAt)
	if err != nil || posted.IsZero() || created.After(posted) {
		return 0
	}
	return posted.Sub(created).Hours() / 24
}

// parseTime is time.Parse(TimeLayout, s) with a fixed-offset fast path:
// the pipeline parses three timestamps per tweet, and the reflective
// layout walk was 4.5% of extraction. The fast path takes only strings
// spelled exactly as time.Format(TimeLayout) spells them — fixed width,
// canonical names, all digits in place, in-range fields — and returns what
// time.Parse returns for them; anything else (one-digit hours, odd
// capitalisation, out-of-range values, a malformed string) goes to
// time.Parse, which stays the judge of what is accepted. FuzzParseTime
// pins the two together.
func parseTime(s string) (time.Time, error) {
	const (
		days   = "SunMonTueWedThuFriSat"
		months = "JanFebMarAprMayJunJulAugSepOctNovDec"
	)
	// Layout offsets:  0123456789012345678901234567890
	//                  Mon Jan 02 15:04:05 -0700 2006
	if len(s) != len(TimeLayout) || s[3] != ' ' || s[7] != ' ' || s[10] != ' ' ||
		s[13] != ':' || s[16] != ':' || s[19] != ' ' || s[25] != ' ' ||
		(s[20] != '+' && s[20] != '-') || strings.Index(days, s[0:3])%3 != 0 {
		return time.Parse(TimeLayout, s)
	}
	month := strings.Index(months, s[4:7])
	day, hour, minute, sec := num2(s[8:]), num2(s[11:]), num2(s[14:]), num2(s[17:])
	zh, zm, century, yy := num2(s[21:]), num2(s[23:]), num2(s[26:]), num2(s[28:])
	if month%3 != 0 || day < 1 || hour|minute|sec|zh|zm|century|yy < 0 ||
		hour > 23 || minute > 59 || sec > 59 || zh > 23 || zm > 59 {
		return time.Parse(TimeLayout, s)
	}
	year := century*100 + yy
	offset := (zh*60 + zm) * 60
	if s[20] == '-' {
		offset = -offset
	}
	utc := time.Date(year, time.Month(month/3+1), day, hour, minute, sec, 0, time.UTC)
	if utc.Day() != day { // day beyond the month's end: Date normalized it
		return time.Parse(TimeLayout, s)
	}
	utc = utc.Add(-time.Duration(offset) * time.Second)
	// time.Parse reports the time in Local when Local is at that offset at
	// that instant, else in a fabricated zone (cached for whole hours).
	if local := utc.In(time.Local); zoneOffset(local) == offset {
		return local, nil
	}
	return utc.In(time.FixedZone("", offset)), nil
}

// num2 reads two ASCII digits, returning a negative number if either byte
// is not a digit.
func num2(s string) int {
	a, b := int(s[0])-'0', int(s[1])-'0'
	if a < 0 || a > 9 || b < 0 || b > 9 {
		return -1
	}
	return a*10 + b
}

func zoneOffset(t time.Time) int {
	_, off := t.Zone()
	return off
}

// Clone returns a copy of the tweet whose string fields are freshly
// allocated. Fast-decoded tweets carve their strings out of a pooled
// decoder arena (see Decoder); any consumer that retains tweet strings
// beyond the processing call — the sampler reservoir, user-state records —
// clones them first so a few surviving bytes never pin a 64KB arena chunk.
func (t *Tweet) Clone() Tweet {
	c := *t
	c.IDStr = strings.Clone(t.IDStr)
	c.Text = strings.Clone(t.Text)
	c.CreatedAt = strings.Clone(t.CreatedAt)
	c.Label = strings.Clone(t.Label)
	c.User.IDStr = strings.Clone(t.User.IDStr)
	c.User.ScreenName = strings.Clone(t.User.ScreenName)
	c.User.CreatedAt = strings.Clone(t.User.CreatedAt)
	return c
}

// Marshal encodes the tweet as a single JSON line.
func (t *Tweet) Marshal() ([]byte, error) { return json.Marshal(t) }

// Unmarshal decodes a tweet from JSON, reporting malformed payloads.
func Unmarshal(data []byte) (Tweet, error) {
	var t Tweet
	if err := json.Unmarshal(data, &t); err != nil {
		return Tweet{}, fmt.Errorf("twitterdata: malformed tweet JSON: %w", err)
	}
	return t, nil
}

// Writer streams tweets as JSON Lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps an io.Writer for JSONL output.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write emits one tweet as a JSON line.
func (w *Writer) Write(t Tweet) error { return w.enc.Encode(t) }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams tweets from JSON Lines input, skipping blank lines.
type Reader struct {
	sc *bufio.Scanner
}

// NewReader wraps an io.Reader producing JSONL tweets.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next tweet, io.EOF at end of stream, or a decode error
// for malformed lines.
func (r *Reader) Read() (Tweet, error) {
	for r.sc.Scan() {
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		return Unmarshal(line)
	}
	if err := r.sc.Err(); err != nil {
		return Tweet{}, err
	}
	return Tweet{}, io.EOF
}

// ReadAll drains the stream, returning all tweets and the first error
// encountered (io.EOF is not an error).
func (r *Reader) ReadAll() ([]Tweet, error) {
	var out []Tweet
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
