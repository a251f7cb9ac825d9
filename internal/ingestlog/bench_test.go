package ingestlog

import (
	"io"
	"testing"

	"redhanded/internal/feature"
	"redhanded/internal/text"
	"redhanded/internal/twitterdata"
)

// tweetLines returns n generator tweets in the form the log stores them:
// the NDJSON line a client sent.
func tweetLines(tb testing.TB, n int) [][]byte {
	tb.Helper()
	g := twitterdata.NewGenerator(1, 10)
	lines := make([][]byte, n)
	for i := range lines {
		tw := g.Tweet(i%3, i%10)
		line, err := tw.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		lines[i] = line
	}
	return lines
}

// buildTweetLog fills a single-partition log with n generator tweets and
// returns its directory.
func buildTweetLog(tb testing.TB, n int) string {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(Options{Dir: dir, Partitions: 1, SegmentBytes: 8 << 20, Fsync: FsyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	for _, line := range tweetLines(tb, n) {
		if _, err := l.Append(0, line); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestSegmentReadZeroAlloc is the SegmentRead gate: Reader.Next over an
// mmap'd segment — frame parse + checksum, payload a view into the mapping
// — allocates nothing.
func TestSegmentReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	r, err := OpenPartitionReader(buildTweetLog(t, 2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Reader.Next allocates %v per record, want 0", allocs)
	}
}

func BenchmarkIngestlogAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, Partitions: 1, SegmentBytes: 64 << 20, Fsync: FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	lines := tweetLines(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(0, lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestlogSegmentRead is the segment-read hot path: frame
// parse + checksum over mmap'd bytes. It must not allocate.
func BenchmarkIngestlogSegmentRead(b *testing.B) {
	dir := buildTweetLog(b, 5000)
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := r.Next()
		if err == io.EOF {
			if err := r.SeekTo(0); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestlogReplayScan is the replay-into-scan-path headline:
// segment read + pooled NDJSON decode + the single-pass text scanner, i.e.
// how fast disk replay can feed the zero-alloc scan path.
func BenchmarkIngestlogReplayScan(b *testing.B) {
	dir := buildTweetLog(b, 5000)
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var sc text.Scratch
	var tw twitterdata.Tweet
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, _, err := r.Next()
		if err == io.EOF {
			if err := r.SeekTo(0); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeInto(&tw, payload); err != nil {
			b.Fatal(err)
		}
		sc.Scan(tw.Text)
		dec.Discard()
	}
}

// BenchmarkIngestlogReplayExtract is the full replay fast path: segment
// read, pooled NDJSON decode, and feature extraction.
func BenchmarkIngestlogReplayExtract(b *testing.B) {
	dir := buildTweetLog(b, 5000)
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ext := feature.NewExtractor(feature.DefaultConfig())
	dst := make([]float64, feature.NumFeatures)
	var tw twitterdata.Tweet
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, _, err := r.Next()
		if err == io.EOF {
			if err := r.SeekTo(0); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeInto(&tw, payload); err != nil {
			b.Fatal(err)
		}
		ext.ExtractInto(dst, &tw)
		dec.Discard()
	}
}
