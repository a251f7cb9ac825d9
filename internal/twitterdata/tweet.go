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
// time (0 when either timestamp is malformed or inconsistent). When both
// strings take parseUnix's fast path it compares their instants directly:
// Sub ignores locations, so no zone is looked up and the result is the
// same float, bit for bit (FuzzAccountAgeDays).
//
//redvet:noalloc gate=FeatCacheLookup
func (t *Tweet) AccountAgeDays() float64 {
	ps, _, pok := parseUnix(t.CreatedAt)
	cs, _, cok := parseUnix(t.User.CreatedAt)
	if pok && cok {
		if ps == zeroUnix || cs > ps {
			return 0
		}
		return time.Unix(ps, 0).Sub(time.Unix(cs, 0)).Hours() / 24
	}
	posted := t.PostedAt()
	created, err := parseTime(t.User.CreatedAt)
	if err != nil || posted.IsZero() || created.After(posted) {
		return 0
	}
	return posted.Sub(created).Hours() / 24
}

// zeroUnix is the zero time.Time (January 1, year 1, UTC) in Unix seconds.
const zeroUnix = -62135596800

// parseTime is time.Parse(TimeLayout, s): parseUnix reads the instant, and
// the zone is the one time.Parse picks for it. Anything parseUnix refuses
// goes to time.Parse, which stays the judge of what is accepted.
// FuzzParseTime pins the two together.
func parseTime(s string) (time.Time, error) {
	sec, offset, ok := parseUnix(s)
	if !ok {
		return time.Parse(TimeLayout, s)
	}
	// time.Parse reports the time in Local when Local is at that offset at
	// that instant, else in a fabricated zone (cached for whole hours).
	t := time.Unix(sec, 0)
	if zoneOffset(t) == offset {
		return t, nil
	}
	return t.In(time.FixedZone("", offset)), nil
}

// parseUnix reads a timestamp spelled exactly as time.Format(TimeLayout)
// spells it — fixed width, canonical names, all digits in place, in-range
// fields — and returns its instant in Unix seconds and its zone offset in
// seconds east of UTC, computed arithmetically (no time.Date, no zone
// lookup). ok is false for anything else (one-digit hours, odd
// capitalisation, out-of-range values, a malformed string); time.Parse may
// still accept those.
//
//redvet:noalloc gate=FeatCacheLookup
func parseUnix(s string) (sec int64, offset int, ok bool) {
	// Layout offsets:  0123456789012345678901234567890
	//                  Mon Jan 02 15:04:05 -0700 2006
	if len(s) != len(TimeLayout) || s[3] != ' ' || s[7] != ' ' || s[10] != ' ' ||
		s[13] != ':' || s[16] != ':' || s[19] != ' ' || s[25] != ' ' ||
		(s[20] != '+' && s[20] != '-') {
		return 0, 0, false
	}
	switch s[0:3] {
	case "Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat":
	default:
		return 0, 0, false
	}
	var month int
	switch s[4:7] {
	case "Jan":
		month = 1
	case "Feb":
		month = 2
	case "Mar":
		month = 3
	case "Apr":
		month = 4
	case "May":
		month = 5
	case "Jun":
		month = 6
	case "Jul":
		month = 7
	case "Aug":
		month = 8
	case "Sep":
		month = 9
	case "Oct":
		month = 10
	case "Nov":
		month = 11
	case "Dec":
		month = 12
	default:
		return 0, 0, false
	}
	day, hour, minute, second := num2(s[8:]), num2(s[11:]), num2(s[14:]), num2(s[17:])
	zh, zm, century, yy := num2(s[21:]), num2(s[23:]), num2(s[26:]), num2(s[28:])
	if day < 1 || hour|minute|second|zh|zm|century|yy < 0 ||
		hour > 23 || minute > 59 || second > 59 || zh > 23 || zm > 59 {
		return 0, 0, false
	}
	year := century*100 + yy
	if day > daysIn(month, year) {
		return 0, 0, false
	}
	offset = (zh*60 + zm) * 60
	if s[20] == '-' {
		offset = -offset
	}
	sec = civilDays(year, month, day)*86400 + int64(hour*3600+minute*60+second-offset)
	return sec, offset, true
}

// daysIn returns the length of month in year under the proleptic Gregorian
// calendar time uses.
//
//redvet:noalloc gate=FeatCacheLookup
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// civilDays returns the days from 1970-01-01 to the given proleptic
// Gregorian date (Hinnant's days_from_civil), for years 0 through 9999.
//
//redvet:noalloc gate=FeatCacheLookup
func civilDays(year, month, day int) int64 {
	// Count years from March, so the leap day ends a year, and from 400
	// years before year 0, so every quotient below is a floor.
	y := year + 400
	if month <= 2 {
		y--
	}
	era, yoe := y/400, y%400
	doy := (153*((month+9)%12)+2)/5 + day - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era-1)*146097 + int64(doe) - 719468
}

// Bounds of appendTime's fast path in Unix seconds: 1000-01-01 and
// 10000-01-01 UTC, the years time.Format spells with exactly four digits.
const (
	minFastUnix = -30610224000
	endFastUnix = 253402300800
)

const (
	dayNames   = "ThuFriSatSunMonTueWed" // from 1970-01-01, a Thursday
	monthNames = "JanFebMarAprMayJunJulAugSepOctNovDec"
)

// appendTime appends t.Format(TimeLayout) to b. A UTC time in years
// 1000–9999 (every time the generator makes) is spelled arithmetically
// from its Unix seconds; anything else goes to AppendFormat.
// FuzzAppendTime pins the two together.
func appendTime(b []byte, t time.Time) []byte {
	sec := t.Unix()
	if t.Location() != time.UTC || sec < minFastUnix || sec >= endFastUnix {
		return t.AppendFormat(b, TimeLayout)
	}
	days := sec / 86400
	sod := int(sec - days*86400)
	if sod < 0 {
		days--
		sod += 86400
	}
	year, month, day := civilDate(days)
	wd := int((days%7 + 7) % 7)
	b = append(b, dayNames[3*wd:3*wd+3]...)
	b = append(b, ' ')
	b = append(b, monthNames[3*month-3:3*month]...)
	b = append(b, ' ')
	b = appendDec(b, day, 2)
	b = append(b, ' ')
	b = appendDec(b, sod/3600, 2)
	b = append(b, ':')
	b = appendDec(b, sod/60%60, 2)
	b = append(b, ':')
	b = appendDec(b, sod%60, 2)
	b = append(b, " +0000 "...)
	return appendDec(b, year, 4)
}

// civilDate is civilDays' inverse (Hinnant's civil_from_days) for dates
// from year 1000 on, where every quotient below is a floor.
func civilDate(days int64) (year, month, day int) {
	z := days + 719468 // days since 0000-03-01
	era, doe := int(z/146097), int(z%146097)
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day = doy - (153*mp+2)/5 + 1
	month = (mp+2)%12 + 1
	year = era*400 + yoe
	if month <= 2 {
		year++
	}
	return year, month, day
}

// appendDec appends v in decimal, zero-padded to at least width digits
// (fmt's %0<width>d for v ≥ 0).
func appendDec(b []byte, v, width int) []byte {
	var buf [20]byte
	i := len(buf)
	for v >= 10 || width > 1 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		width--
	}
	i--
	buf[i] = byte('0' + v)
	return append(b, buf[i:]...)
}

// num2 reads two ASCII digits, returning a negative number if either byte
// is not a digit.
//
//redvet:noalloc gate=FeatCacheLookup
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

// maxLineBytes caps one JSONL line; a longer line ends the stream with
// bufio.ErrTooLong.
const maxLineBytes = 4 << 20

// Reader streams tweets from JSON Lines input; it is an engine.Source.
// Blank lines are skipped, and so are lines that do not decode, which
// Malformed counts. A read error (I/O, or a line over maxLineBytes) ends
// the stream: Next returns false from then on and Err reports it. It
// decodes with a Decoder of its own, never pooled: returned strings live in
// that decoder's arena, which only appends, so they stay valid however many
// tweets are read after them.
type Reader struct {
	sc        *bufio.Scanner
	dec       Decoder
	line      int64 // lines scanned
	malformed int64
	err       error
}

// NewReader wraps an io.Reader producing JSONL tweets.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &Reader{sc: sc}
}

// Next returns the next tweet that decodes, or false at the end of the
// input or at the first read error.
func (r *Reader) Next() (Tweet, bool) {
	// The scanner's errors are sticky, and after one it may still hand out
	// the buffered part of the line it failed on: never scan past an error.
	for r.err == nil && r.sc.Scan() {
		r.line++
		line := r.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var t Tweet
		if r.dec.DecodeInto(&t, line) != nil {
			r.malformed++
			continue
		}
		return t, true
	}
	if err := r.sc.Err(); err != nil && r.err == nil {
		r.err = fmt.Errorf("twitterdata: line %d: %w", r.line+1, err)
	}
	return Tweet{}, false
}

// Err returns the read error that ended the stream, naming the line it
// occurred on, or nil after a clean end of input.
func (r *Reader) Err() error { return r.err }

// Malformed returns how many non-blank lines did not decode as a tweet.
func (r *Reader) Malformed() int64 { return r.malformed }
