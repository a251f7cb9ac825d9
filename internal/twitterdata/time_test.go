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
