package twitterdata

import (
	"math"
	"testing"
	"time"
)

// FuzzParseTime pins the fixed-layout fast path to time.Parse: the same
// strings are accepted, and accepted strings yield the same instant in the
// same zone.
func FuzzParseTime(f *testing.F) {
	for _, s := range []string{
		"Mon Jun 01 12:00:00 +0000 2020",
		"Thu Jun 01 18:11:18 +0000 2017",
		"Sat Feb 29 23:59:59 -0700 2020", // leap day
		"Sun Feb 29 00:00:00 +0000 2021", // no such day
		"Mon Apr 31 00:00:00 +0000 2020",
		"Mon Jan 00 00:00:00 +0000 2020",
		"Fri Dec 31 23:59:60 +0000 2021",
		"Fri Dec 31 24:00:00 +0000 2021",
		"Wed Jan 02 15:04:05 +0530 2006", // fabricated half-hour zone
		"Wed Jan 02 15:04:05 -2359 2006",
		"Wed Jan 02 15:04:05 +2400 2006",
		"Wed Jan 02 15:04:05 +0060 2006",
		"Wed Jan 02 15:04:05 +0000 0000",
		"Wed Jan 02 15:04:05 +0000 9999",
		"mon jun 01 12:00:00 +0000 2020", // names match case-insensitively
		"Xyz Jun 01 12:00:00 +0000 2020",
		"Mon Jun 01 1:00:00 +0000 2020 ", // one-digit hour, trailing space
		"Mon Jun  1 12:00:00 +0000 2020",
		"Mon Jun 01 12:00:00 Z0000 2020",
		"Mon Jun 01 12:00:00 +0000 20x0",
		"Mon Jun 01 12:00:00 +0000 2\xff20",
		"Mon Jun 01 12:00:00.5 +0000 202",
		"",
		"2020-06-01T12:00:00Z",
		"Thu Feb 29 00:00:00 +0000 1900", // not a leap year
		"Tue Feb 29 00:00:00 +0000 2000", // a leap year
	} {
		f.Add(s)
	}
	for _, day := range []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"} {
		f.Add(day + " Jun 01 12:00:00 +0000 2020")
	}
	for _, month := range []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"} {
		for _, day := range []string{"01", "28", "29", "30", "31"} {
			f.Add("Mon " + month + " " + day + " 12:00:00 +0000 2021")
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := time.Parse(TimeLayout, s)
		got, gotErr := parseTime(s)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("parseTime(%q) err = %v, time.Parse err = %v", s, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("parseTime(%q) = %v, time.Parse = %v", s, got, want)
		}
	})
}

// FuzzAppendTime pins appendTime to time.Format: its arithmetic fast path
// for UTC in years 1000–9999, and its AppendFormat fallback everywhere else
// (other zones, other years).
func FuzzAppendTime(f *testing.F) {
	utc := func(year int, month time.Month, day, hour, min, sec int) int64 {
		return time.Date(year, month, day, hour, min, sec, 0, time.UTC).Unix()
	}
	for _, sec := range []int64{
		0, -1, 1, 86399, 86400, -86400, -86401,
		utc(2017, 6, 1, 0, 0, 0), utc(2017, 6, 10, 23, 59, 59), // the generator's base and horizon
		minFastUnix - 1, minFastUnix, minFastUnix + 1,
		endFastUnix - 1, endFastUnix, endFastUnix + 1,
		utc(2000, 2, 29, 12, 0, 0), utc(2000, 3, 1, 0, 0, 0), // a leap day
		utc(1900, 2, 28, 23, 59, 59), utc(1900, 3, 1, 0, 0, 0), // no leap day
		utc(1600, 2, 29, 0, 0, 0), utc(2100, 3, 1, 0, 0, 0),
		utc(1969, 12, 31, 23, 59, 59), utc(1999, 12, 31, 23, 59, 59),
		utc(5, 1, 1, 0, 0, 0), utc(-1, 1, 1, 0, 0, 0),
		math.MinInt64, math.MaxInt64,
	} {
		f.Add(sec, uint32(0), int32(0))
		f.Add(sec, uint32(999999999), int32(0))
		f.Add(sec, uint32(0), int32(-7*3600))
	}
	for m := time.January; m <= time.December; m++ {
		for d := 1; d <= 7; d++ { // every month and day of the week
			f.Add(utc(2021, m, d, 8, 30, 15), uint32(0), int32(0))
		}
	}
	f.Fuzz(func(t *testing.T, sec int64, nsec uint32, offset int32) {
		tm := time.Unix(sec, int64(nsec%1e9)).UTC()
		if offset != 0 {
			tm = tm.In(time.FixedZone("", int(offset%86400)))
		}
		want := tm.Format(TimeLayout)
		if got := appendTime([]byte("x"), tm); string(got) != "x"+want {
			t.Fatalf("appendTime(%v) = %q, time.Format = %q", tm, got[1:], want)
		}
	})
}

// refAccountAgeDays is AccountAgeDays spelled with time.Parse alone.
func refAccountAgeDays(posted, created string) float64 {
	p, err := time.Parse(TimeLayout, posted)
	if err != nil {
		p = time.Time{}
	}
	c, err := time.Parse(TimeLayout, created)
	if err != nil || p.IsZero() || c.After(p) {
		return 0
	}
	return p.Sub(c).Hours() / 24
}

// FuzzAccountAgeDays pins AccountAgeDays, whose fast path compares Unix
// seconds without building a time.Time in any zone, to the same rule
// computed with time.Parse: the same float64, bit for bit.
func FuzzAccountAgeDays(f *testing.F) {
	for _, seed := range [][2]string{
		{"Thu Jun 01 18:11:18 +0000 2017", "Mon Jan 02 15:04:05 +0000 2012"},
		{"Mon Jan 01 00:00:00 +0000 0001", "Sat Jan 01 00:00:00 +0000 0000"}, // posted.IsZero()
		{"Mon Jan 01 01:00:00 +0100 0001", "Sat Jan 01 00:00:00 +0000 0000"}, // the same instant
		{"Mon Jan 02 15:04:05 +0000 2012", "Thu Jun 01 18:11:18 +0000 2017"}, // created after posted
		{"Wed Jan 02 15:04:05 -2359 2006", "Wed Jan 02 15:04:05 +2359 2006"},
		{"Wed Jan 02 15:04:05 +2359 2006", "Wed Jan 02 15:04:05 -2359 2006"},
		{"Thu Mar 01 00:00:00 +0000 1900", "Thu Feb 29 00:00:00 +0000 1900"},
		{"Wed Mar 01 00:00:00 +0000 2000", "Tue Feb 29 00:00:00 +0000 2000"},
		{"Sun Mar 01 00:00:00 +0000 2020", "Sat Feb 29 00:00:00 +0000 2020"},
		{"Mon Mar 01 00:00:00 +0000 2021", "Sun Feb 29 00:00:00 +0000 2021"},
		{"Fri Dec 31 23:59:59 +0000 9999", "Sat Jan 01 00:00:00 +0000 0000"}, // Sub saturates
		{"thu Jun 01 18:11:18 +0000 2017", "Mon Jan 02 15:04:05 +0000 2012"}, // fallback path
		{"Thu Jun 01 18:11:18 +0000 2017", "mon Jan 02 15:04:05 +0000 2012"},
		{"Thu Jun 01 18:11:18 +0000", "Mon Jan 02 15:04:05 +0000 2012"},
		{"Thu Jun 01 18:11:18 +0000 2017", "not a timestamp"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, posted, created string) {
		tw := Tweet{CreatedAt: posted, User: User{CreatedAt: created}}
		got, want := tw.AccountAgeDays(), refAccountAgeDays(posted, created)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AccountAgeDays(%q, %q) = %v, time.Parse reference = %v", posted, created, got, want)
		}
	})
}

// TestParseTimeLocalZone checks the one input-independent branch of
// time.Parse the fast path mirrors: an offset that matches Local's at that
// instant comes back in Local, with its zone name.
func TestParseTimeLocalZone(t *testing.T) {
	saved := time.Local
	defer func() { time.Local = saved }()
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Skip("no tzdata:", err)
	}
	time.Local = ny
	for _, s := range []string{
		"Mon Jun 01 12:00:00 -0400 2020", // EDT: Local's offset in June
		"Mon Jun 01 12:00:00 -0500 2020", // not Local's offset in June
		"Wed Jan 01 12:00:00 -0500 2020", // EST
		"Mon Jun 01 12:00:00 +0000 2020",
	} {
		want, err := time.Parse(TimeLayout, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseTime(s)
		if err != nil || got != want {
			t.Errorf("parseTime(%q) = %v (%v), time.Parse = %v", s, got, err, want)
		}
	}
}

func BenchmarkParseTime(b *testing.B) {
	const s = "Thu Jun 01 18:11:18 +0000 2017"
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parseTime(s)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			time.Parse(TimeLayout, s)
		}
	})
}
