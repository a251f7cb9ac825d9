package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

// benchPool pre-marshals a mixed replay pool so the benchmark measures the
// serving path, not JSON generation.
func benchPool(n int) [][]byte {
	src := twitterdata.NewUnlabeledSource(1, 10)
	lines := make([][]byte, n)
	for i := range lines {
		t := src.Next()
		blob, err := t.Marshal()
		if err != nil {
			panic(err)
		}
		lines[i] = blob
	}
	return lines
}

func newBenchServer(b *testing.B, shards int) *Server {
	b.Helper()
	opts := testOptions()
	opts.Shards = shards
	opts.QueueDepth = 1 << 16
	opts.Registry = metrics.NewRegistry()
	return NewServer(opts)
}

// BenchmarkIngestNDJSON drives the async firehose path with 100-tweet
// batches through ServeHTTP directly (no sockets), as a client that honours
// backpressure: a batch answered 429 is resent from its first line past
// Accepted+Malformed after a 1 ms pause. Drain ends the timed window, so
// tweets/s counts processed tweets only and every round stops its server.
func BenchmarkIngestNDJSON(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := newBenchServer(b, shards)
			lines := benchPool(4096)
			const batch = 100
			bodies := make([][]byte, 64)
			starts := make([][batch]int, len(bodies)) // each line's byte offset
			for i := range bodies {
				var buf bytes.Buffer
				for j := 0; j < batch; j++ {
					starts[i][j] = buf.Len()
					buf.Write(lines[(i*batch+j)%len(lines)])
					buf.WriteByte('\n')
				}
				bodies[i] = buf.Bytes()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(bodies)
				for from := 0; ; {
					req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(bodies[k][starts[k][from]:]))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code == 200 {
						break
					}
					var resp IngestResponse
					if rec.Code != 429 || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
						b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
					}
					from += int(resp.Accepted + resp.Malformed)
					time.Sleep(time.Millisecond)
				}
			}
			if err := s.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var processed int64
			for i := 0; i < s.Shards(); i++ {
				processed += s.Pipeline(i).Processed()
			}
			if processed != int64(batch*b.N) {
				b.Fatalf("processed %d tweets, sent %d", processed, batch*b.N)
			}
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "tweets/s")
		})
	}
}

// BenchmarkClassify measures the synchronous single-tweet path.
func BenchmarkClassify(b *testing.B) {
	s := newBenchServer(b, 4)
	lines := benchPool(4096)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(lines[i%len(lines)]))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != 200 && rec.Code != 429 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tweets/s")
}
