package twitterdata

import (
	"encoding/json"
	"strings"
	"testing"
)

// oracleDecode is the reference semantics: json.Unmarshal into a fresh
// Tweet.
func oracleDecode(line []byte) (Tweet, error) {
	var t Tweet
	err := json.Unmarshal(line, &t)
	return t, err
}

// checkEquivalence runs one input through both decoders and fails on any
// divergence (error-vs-success, or differing tweets on success).
func checkEquivalence(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := oracleDecode(line)
	d := GetDecoder()
	defer PutDecoder(d)
	var got Tweet
	gotErr := d.DecodeInto(&got, line)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error divergence on %q:\n  json.Unmarshal err=%v\n  DecodeInto err=%v", line, wantErr, gotErr)
	}
	if wantErr != nil {
		if got != (Tweet{}) {
			t.Fatalf("DecodeInto left non-zero tweet after error on %q: %+v", line, got)
		}
		return
	}
	if got != want {
		t.Fatalf("value divergence on %q:\n  want %+v\n  got  %+v", line, want, got)
	}
}

// decodeCases is the table shared by the unit test and the fuzz seed
// corpus: every equivalence class the decoder special-cases.
var decodeCases = append([]string{
	// Plain tweets.
	`{"id_str":"1","text":"hello world","created_at":"Mon Jan 02 15:04:05 +0000 2006","user":{"id_str":"u1","screen_name":"alice","created_at":"Mon Jan 02 15:04:05 +0000 2005","followers_count":10,"friends_count":20,"statuses_count":30,"listed_count":2},"label":"normal","day":3}`,
	`{}`,
	`{"text":""}`,
	`  {"text":"lead/trail ws"}  ` + "\r\n\t",
	// Top-level null and non-object values.
	`null`,
	`null  `,
	`nul`,
	`nullx`,
	`true`,
	`123`,
	`"str"`,
	`[1,2]`,
	``,
	`   `,
	"\xef\xbb\xbf{}",
	// Escapes and unicode.
	`{"text":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
	`{"text":"\u0041\u00e9\u4e2d"}`,
	`{"text":"\ud83d\ude00"}`,
	`{"text":"\ud83d"}`,
	`{"text":"\ude00\ud83d"}`,
	`{"text":"\ud83dxx"}`,
	`{"text":"\ud83d\u0041"}`,
	`{"text":"\u12"}`,
	`{"text":"\uZZZZ"}`,
	`{"text":"\q"}`,
	`{"text":"caf\u00e9 ☕ 中文"}`,
	"{\"text\":\"raw\x80bad\"}",
	"{\"text\":\"trunc\xe4\xb8\"}",
	"{\"text\":\"ok\xe4\xb8\xad\"}",
	"{\"text\":\"ctrl\x01\"}",
	`{"text":"unterminated`,
	`{"text":"esc at end\`,
	// Keys: escapes, case folding, unicode folds, duplicates.
	`{"\u0074ext":"escaped key"}`,
	`{"TEXT":"upper"}`,
	`{"Text":"mixed","tExT":"later wins"}`,
	`{"id_\u017ftr":"long s folds to s"}`,
	`{"te\u212at":"kelvin does not match text"}`,
	`{"text":"a","text":"b"}`,
	`{"day":1,"day":2}`,
	`{"":"empty key"}`,
	`{"unknown":{"nested":[1,{"x":"y"},null,true]},"text":"after unknown"}`,
	// Duplicate user objects merge.
	`{"user":{"id_str":"a","followers_count":1},"user":{"screen_name":"b"}}`,
	`{"user":{"followers_count":1},"user":null}`,
	`{"user":null}`,
	`{"user":"notanobject"}`,
	`{"user":[1]}`,
	// Numbers.
	`{"day":0}`,
	`{"day":-0}`,
	`{"day":9223372036854775807}`,
	`{"day":-9223372036854775808}`,
	`{"day":9223372036854775808}`,
	`{"day":-9223372036854775809}`,
	`{"day":01}`,
	`{"day":1.5}`,
	`{"day":1e3}`,
	`{"day":0.0}`,
	`{"day":-}`,
	`{"day":+1}`,
	`{"day":"7"}`,
	`{"day":null}`,
	`{"day":true}`,
	`{"unknown":-12.5e+7}`,
	`{"unknown":0.5E-2}`,
	`{"unknown":1.}`,
	`{"unknown":1e}`,
	`{"unknown":1e+}`,
	`{"unknown":00}`,
	// Nulls into typed fields are no-ops.
	`{"text":null}`,
	`{"text":"kept","text":null}`,
	// Structural errors.
	`{"text":"a"`,
	`{"text"}`,
	`{"text":}`,
	`{"text":"a",}`,
	`{,}`,
	`{"a":1 "b":2}`,
	`{"a":tru}`,
	`{"a":falsee}`,
	`{"a":[1,]}`,
	`{"a":[}`,
	`{"a":[]}`,
	`{"a":[ ]}`,
	`{} trailing`,
	`{}{}`,
	// Whitespace-only separators.
	"{ \"text\" \n:\t \"ws\" \r}",
	// Every field under a case-folded spelling: the exact-key switch misses,
	// the fold match must still land each value where encoding/json does.
	`{"ID_STR":"1","Text":"t","CREATED_AT":"c","User":{"Id_Str":"u","ſcreen_name":"s","Created_At":"c","FOLLOWERS_COUNT":1,"Friends_Count":2,"ſtatuses_count":3,"liſted_count":4},"LABEL":"l","Day":5}`,
	`{"iD_sTR":"1","tEXT":"t","created_AT":"c","uSER":{"ID_STR":"u","SCREEN_NAME":"s","CREATED_AT":"c","followers_COUNT":1,"FRIENDS_COUNT":2,"STATUSES_COUNT":3,"LISTED_COUNT":4},"Label":"l","DAY":5}`,
	`{"ſ":1,"id_ſtr ":"near miss","User":{"screen_namé":"near miss"}}`,
}, wordBoundaryCases()...)

// wordBoundaryCases places each byte class the word-at-a-time string scan
// tells apart at every offset of the first two eight-byte words of a text
// value and of an unknown field's string, and ends plain strings on either
// side of a word boundary, closed and unterminated.
func wordBoundaryCases() []string {
	inserts := []string{`\"`, `\\`, "\x1f", "\x7f", "\x80", "\xff", "\U0001F600"}
	var out []string
	for _, ins := range inserts {
		for off := 0; off < 16; off++ {
			body := strings.Repeat("a", off) + ins + strings.Repeat("z", 16-off)
			out = append(out, `{"text":"`+body+`"}`, `{"extra":"`+body+`","text":"t"}`)
		}
	}
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		body := strings.Repeat("x", n)
		out = append(out, `{"text":"`+body+`"}`, `{"text":"`+body, `{"extra":"`+body+`"}`, `{"extra":"`+body)
	}
	return out
}

func TestDecodeIntoEquivalence(t *testing.T) {
	for _, tc := range decodeCases {
		checkEquivalence(t, []byte(tc))
	}
}

// TestDecodeIntoGeneratedCorpus proves equivalence over the synthetic
// corpus the benches replay: every generator-produced tweet round-trips
// through Marshal and both decoders identically.
func TestDecodeIntoGeneratedCorpus(t *testing.T) {
	tweets := GenerateAggression(AggressionConfig{Seed: 7, Days: 3, NormalCount: 200, AbusiveCount: 80, HatefulCount: 40})
	d := GetDecoder()
	defer PutDecoder(d)
	for i := range tweets {
		line, err := tweets[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, line)
		// And via a reused decoder, to exercise arena reuse.
		var got Tweet
		if err := d.DecodeInto(&got, line); err != nil {
			t.Fatalf("DecodeInto failed on generated tweet: %v", err)
		}
		if got != tweets[i] {
			t.Fatalf("generated tweet diverged:\n  want %+v\n  got  %+v", tweets[i], got)
		}
	}
}

// TestDecodeDepthLimit pins the container nesting boundary to
// encoding/json's 10000.
func TestDecodeDepthLimit(t *testing.T) {
	// Tweet object is container 1, so k inner brackets reach depth k+1.
	deepOK := `{"x":` + strings.Repeat("[", maxDecodeDepth-1) + strings.Repeat("]", maxDecodeDepth-1) + `}`
	deepBad := `{"x":` + strings.Repeat("[", maxDecodeDepth) + strings.Repeat("]", maxDecodeDepth) + `}`
	checkEquivalence(t, []byte(deepOK))
	checkEquivalence(t, []byte(deepBad))
}

// TestDecodeArenaDiscard asserts the Discard contract: rejected decodes
// rewind the arena so a rejected burst does not stride through chunks.
func TestDecodeArenaDiscard(t *testing.T) {
	d := GetDecoder()
	defer PutDecoder(d)
	line := []byte(`{"id_str":"1","text":"some reasonably sized tweet text for the arena","user":{"screen_name":"bob"}}`)
	var tw Tweet
	// Prime the arena so a chunk exists.
	if err := d.DecodeInto(&tw, line); err != nil {
		t.Fatal(err)
	}
	before := ReadDecodeStats().ArenaChunks
	start := d.off
	for i := 0; i < 100000; i++ {
		if err := d.DecodeInto(&tw, line); err != nil {
			t.Fatal(err)
		}
		d.Discard()
	}
	if d.off != start {
		t.Fatalf("arena off moved under Discard: start=%d now=%d", start, d.off)
	}
	if after := ReadDecodeStats().ArenaChunks; after != before {
		t.Fatalf("arena chunks grew under Discard: %d -> %d", before, after)
	}
	// Errors rewind too.
	mark := d.off
	if err := d.DecodeInto(&tw, []byte(`{"text":"abc","broken`)); err == nil {
		t.Fatal("expected error")
	}
	if d.off != mark {
		t.Fatalf("arena off moved after failed decode: %d -> %d", mark, d.off)
	}
}

// TestDecodeStringsSurviveChunkTurnover proves committed strings stay
// valid after the decoder moves to fresh chunks.
func TestDecodeStringsSurviveChunkTurnover(t *testing.T) {
	d := GetDecoder()
	defer PutDecoder(d)
	text := strings.Repeat("x", 4096)
	line := []byte(`{"text":"` + text + `"}`)
	var kept []string
	for i := 0; i < 64; i++ { // 64 * 4KB = 4 chunks of turnover
		var tw Tweet
		if err := d.DecodeInto(&tw, line); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, tw.Text)
	}
	for i, s := range kept {
		if s != text {
			t.Fatalf("kept string %d corrupted after chunk turnover", i)
		}
	}
}

// TestDecodeStatsPerCall pins what one DecodeInto adds to the counters: a
// good line one decode and its interned bytes, a malformed line one error
// and the bytes it interned before failing, and a Discarded line the same
// as a kept one (Discard rewinds the arena, not the counters).
func TestDecodeStatsPerCall(t *testing.T) {
	d := GetDecoder()
	defer PutDecoder(d)
	var tw Tweet
	if err := d.DecodeInto(&tw, []byte(`{"text":"prime the arena"}`)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		line    string
		discard bool
		want    DecodeStats
	}{
		{`{"id_str":"12","text":"hello","user":{"screen_name":"bob"}}`, false, DecodeStats{Decodes: 1, InternedBytes: 10}},
		{`{"text":"abc","broken`, false, DecodeStats{Errors: 1, InternedBytes: 3}},
		{`{"text":"discard me"}`, true, DecodeStats{Decodes: 1, InternedBytes: 10}},
	} {
		before := ReadDecodeStats()
		if err := d.DecodeInto(&tw, []byte(tc.line)); (err != nil) != (tc.want.Errors != 0) {
			t.Fatalf("%s: DecodeInto err = %v", tc.line, err)
		}
		if tc.discard {
			d.Discard()
		}
		after := ReadDecodeStats()
		got := DecodeStats{
			Decodes:       after.Decodes - before.Decodes,
			Errors:        after.Errors - before.Errors,
			ArenaChunks:   after.ArenaChunks - before.ArenaChunks,
			InternedBytes: after.InternedBytes - before.InternedBytes,
		}
		if got != tc.want {
			t.Errorf("%s: counter deltas %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

// TestDecodeIntoZeroAlloc is the IngressDecode gate: a warmed pooled
// decoder parses NDJSON tweets into a reused Tweet without allocating.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tweets := GenerateAggression(AggressionConfig{Seed: 3, Days: 2, NormalCount: 64, AbusiveCount: 24, HatefulCount: 12})
	lines := make([][]byte, len(tweets))
	for i := range tweets {
		var err error
		if lines[i], err = tweets[i].Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	d := GetDecoder()
	defer PutDecoder(d)
	var tw Tweet
	i := 0
	decode := func() {
		if err := d.DecodeInto(&tw, lines[i%len(lines)]); err != nil {
			t.Fatal(err)
		}
		d.Discard()
		i++
	}
	for range lines {
		decode() // warm the arena and scratch to steady state
	}
	if allocs := testing.AllocsPerRun(1000, decode); allocs != 0 {
		t.Fatalf("DecodeInto allocates %v per tweet, want 0", allocs)
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	tweets := GenerateAggression(AggressionConfig{Seed: 3, Days: 2, NormalCount: 64, AbusiveCount: 24, HatefulCount: 12})
	lines := make([][]byte, len(tweets))
	for i := range tweets {
		var err error
		lines[i], err = tweets[i].Marshal()
		if err != nil {
			b.Fatal(err)
		}
	}
	d := GetDecoder()
	defer PutDecoder(d)
	var tw Tweet
	// Warm the arena and scratch to steady state.
	for _, l := range lines {
		if err := d.DecodeInto(&tw, l); err != nil {
			b.Fatal(err)
		}
		d.Discard()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeInto(&tw, lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
		d.Discard()
	}
}

func BenchmarkDecodeStdlib(b *testing.B) {
	tweets := GenerateAggression(AggressionConfig{Seed: 3, Days: 2, NormalCount: 64, AbusiveCount: 24, HatefulCount: 12})
	lines := make([][]byte, len(tweets))
	for i := range tweets {
		var err error
		lines[i], err = tweets[i].Marshal()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tw Tweet
		if err := json.Unmarshal(lines[i%len(lines)], &tw); err != nil {
			b.Fatal(err)
		}
	}
}
