package twitterdata

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleTweet() Tweet {
	posted := time.Date(2017, 6, 10, 12, 0, 0, 0, time.UTC)
	created := posted.AddDate(0, 0, -100)
	return Tweet{
		IDStr:     "123456",
		Text:      "hello world",
		CreatedAt: posted.Format(TimeLayout),
		User: User{
			IDStr:          "42",
			ScreenName:     "someone",
			CreatedAt:      created.Format(TimeLayout),
			FollowersCount: 10,
			FriendsCount:   20,
			StatusesCount:  30,
			ListedCount:    2,
		},
		Label: LabelNormal,
		Day:   3,
	}
}

func TestTweetJSONRoundTrip(t *testing.T) {
	tw := sampleTweet()
	data, err := tw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != tw {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tw)
	}
}

func TestTweetJSONFieldNames(t *testing.T) {
	tw0 := sampleTweet()
	data, _ := tw0.Marshal()
	for _, field := range []string{`"id_str"`, `"text"`, `"created_at"`, `"screen_name"`, `"followers_count"`, `"statuses_count"`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Errorf("JSON misses Twitter API field %s: %s", field, data)
		}
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Fatalf("malformed JSON accepted")
	}
}

func TestAccountAgeDays(t *testing.T) {
	tw := sampleTweet()
	if age := tw.AccountAgeDays(); age < 99.9 || age > 100.1 {
		t.Fatalf("account age = %v, want ~100", age)
	}
}

func TestAccountAgeMalformed(t *testing.T) {
	tw := sampleTweet()
	tw.User.CreatedAt = "garbage"
	if age := tw.AccountAgeDays(); age != 0 {
		t.Fatalf("malformed creation time should give 0 age, got %v", age)
	}
	tw2 := sampleTweet()
	tw2.CreatedAt = "garbage"
	if age := tw2.AccountAgeDays(); age != 0 {
		t.Fatalf("malformed posted time should give 0 age, got %v", age)
	}
	// Account "created" after posting is inconsistent -> 0.
	tw3 := sampleTweet()
	tw3.User.CreatedAt = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).Format(TimeLayout)
	if age := tw3.AccountAgeDays(); age != 0 {
		t.Fatalf("future account creation should give 0 age, got %v", age)
	}
}

func TestIsLabeled(t *testing.T) {
	tw := sampleTweet()
	if !tw.IsLabeled() {
		t.Fatalf("labeled tweet reported unlabeled")
	}
	tw.Label = ""
	if tw.IsLabeled() {
		t.Fatalf("unlabeled tweet reported labeled")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Tweet{sampleTweet(), sampleTweet()}
	want[1].IDStr = "999"
	want[1].Label = ""
	for _, tw := range want {
		if err := w.Write(tw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got := readAll(t, NewReader(&buf))
	if len(got) != 2 || got[0].IDStr != "123456" || got[1].IDStr != "999" {
		t.Fatalf("stream round trip failed: %+v", got)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	tw0 := sampleTweet()
	data, _ := tw0.Marshal()
	input := "\n" + string(data) + "\n\n"
	r := NewReader(strings.NewReader(input))
	if got := readAll(t, r); len(got) != 1 || r.Malformed() != 0 {
		t.Fatalf("blank-line handling failed: %v, %d malformed", got, r.Malformed())
	}
}

func TestReaderMalformedLine(t *testing.T) {
	r := NewReader(strings.NewReader("{bad\n"))
	if _, ok := r.Next(); ok || r.Malformed() != 1 || r.Err() != nil {
		t.Fatalf("malformed line not counted: ok=%v, %d malformed, err %v", ok, r.Malformed(), r.Err())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, ok := r.Next(); ok || r.Err() != nil || r.Malformed() != 0 {
		t.Fatalf("empty stream: ok=%v, err %v, %d malformed", ok, r.Err(), r.Malformed())
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(textRaw string, followers uint16, label uint8) bool {
		tw := sampleTweet()
		tw.Text = textRaw
		tw.User.FollowersCount = int(followers)
		tw.Label = []string{LabelNormal, LabelAbusive, LabelHateful}[int(label)%3]
		data, err := tw.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		return err == nil && back == tw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
