package twitterdata

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestReaderMatchesUnmarshal: over a table of NDJSON lines the Reader
// returns, line by line, exactly what Unmarshal makes of the line, and
// fails where it fails.
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
	want.Buffer(nil, 4<<20)
	for want.Scan() {
		line := want.Bytes()
		if len(line) == 0 {
			continue
		}
		wantTweet, wantErr := Unmarshal(line)
		got, err := r.Read()
		if (err == nil) != (wantErr == nil) || got != wantTweet {
			t.Fatalf("line %.60q: Read = %.80v, %v; Unmarshal = %.80v, %v", line, got, err, wantTweet, wantErr)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after the last line: %v, want io.EOF", err)
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
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
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
