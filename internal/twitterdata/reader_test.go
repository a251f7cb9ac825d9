package twitterdata

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// readAll drains r, failing the test on a read error.
func readAll(t *testing.T, r *Reader) []Tweet {
	t.Helper()
	var out []Tweet
	for tw, ok := r.Next(); ok; tw, ok = r.Next() {
		out = append(out, tw)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReaderMatchesUnmarshal: over a table of NDJSON lines the Reader
// returns, line by line, exactly what Unmarshal makes of the line, and
// counts as malformed the lines Unmarshal fails on.
func TestReaderMatchesUnmarshal(t *testing.T) {
	tw := sampleTweet()
	valid, _ := tw.Marshal()
	huge := sampleTweet()
	huge.Text = strings.Repeat("é ", 350000) // a 1 MB line
	hugeLine, _ := huge.Marshal()
	lines := []string{
		string(valid),
		"",
		"   ",
		string(valid) + "\r", // CRLF: the line scanner drops the \r
		"{bad",
		`{"id_str":1}`,
		"[]",
		`"tweet"`,
		"null",
		string(valid) + " x",
		`{"id_str":"2","foo":{"bar":[1,2,{"x":null}]},"TEXT":"hi","user":{"zzz":true,"id_str":"u"}}`,
		`{"id_str":"3","text":"café 😀 A\n\ud800 \"q\" \\"}`,
		string(hugeLine),
		string(valid),
	}
	input := strings.Join(lines, "\n") + "\n"

	r := NewReader(strings.NewReader(input))
	want := bufio.NewScanner(strings.NewReader(input))
	want.Buffer(nil, maxLineBytes)
	var malformed int64
	for want.Scan() {
		line := want.Bytes()
		if len(line) == 0 {
			continue
		}
		wantTweet, wantErr := Unmarshal(line)
		if wantErr != nil {
			malformed++
			continue
		}
		got, ok := r.Next()
		if !ok || got != wantTweet || r.Malformed() != malformed {
			t.Fatalf("line %.60q: Next = %.80v, %v (%d malformed); Unmarshal = %.80v (%d malformed)",
				line, got, ok, r.Malformed(), wantTweet, malformed)
		}
	}
	if _, ok := r.Next(); ok || r.Err() != nil || r.Malformed() != malformed {
		t.Fatalf("after the last line: ok=%v err=%v malformed=%d, want false, nil, %d", ok, r.Err(), r.Malformed(), malformed)
	}
}

// TestReaderReadAllGeneratedCorpus reads 20k generator tweets in one go:
// every tweet must equal what Unmarshal makes of its line, which holds only
// if the strings of early tweets survive the decoder moving on to fresh
// arena chunks.
func TestReaderReadAllGeneratedCorpus(t *testing.T) {
	g := NewGenerator(3, 10)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 20000; i++ {
		if err := w.Write(g.Tweet(i%3, i%10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")

	chunks := ReadDecodeStats().ArenaChunks
	got := readAll(t, NewReader(&buf))
	if turned := ReadDecodeStats().ArenaChunks - chunks; turned < 2 {
		t.Fatalf("the read used %d arena chunks; the test needs chunk turnover", turned)
	}
	if len(got) != len(lines) {
		t.Fatalf("read %d tweets, wrote %d", len(got), len(lines))
	}
	for i, line := range lines {
		want, err := Unmarshal([]byte(line))
		if err != nil || got[i] != want {
			t.Fatalf("tweet %d: read %+v, Unmarshal %+v (%v)", i, got[i], want, err)
		}
	}
}

// TestReaderStopsAtFault: a line over the cap and a failing io.Reader each
// end the stream where they occur. Next yields the tweets before the fault,
// then false, and stays there; Err wraps the fault and names its line;
// Malformed counts exactly the undecodable line before it.
func TestReaderStopsAtFault(t *testing.T) {
	tw := sampleTweet()
	valid, _ := tw.Marshal()
	// Lines 1–3 valid, 4 malformed, 5–6 valid, the fault on line 7, then
	// lines that must never be read.
	before := strings.Repeat(string(valid)+"\n", 3) + "{bad\n" + strings.Repeat(string(valid)+"\n", 2)
	after := strings.Repeat(string(valid)+"\n", 3)
	injected := errors.New("injected read fault")
	for _, c := range []struct {
		name  string
		fault io.Reader
		want  error
	}{
		{"over-cap line", strings.NewReader(strings.Repeat("x", 5<<20) + "\n"), bufio.ErrTooLong},
		{"read error", iotest.ErrReader(injected), injected},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(io.MultiReader(strings.NewReader(before), c.fault, strings.NewReader(after)))
			n := 0
			for _, ok := r.Next(); ok; _, ok = r.Next() {
				if n++; n > 5 {
					t.Fatal("read past the fault")
				}
			}
			err := r.Err()
			if n != 5 || r.Malformed() != 1 || !errors.Is(err, c.want) {
				t.Fatalf("read %d tweets, %d malformed, Err %v; want 5, 1, %v", n, r.Malformed(), err, c.want)
			}
			if !strings.Contains(err.Error(), "line 7:") {
				t.Fatalf("Err %q does not name line 7", err)
			}
			if _, ok := r.Next(); ok || r.Err() != err || r.Malformed() != 1 {
				t.Fatalf("the reader moved after the fault: Err %v, %d malformed", r.Err(), r.Malformed())
			}
		})
	}
}
