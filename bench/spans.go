package main

import (
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one block of tweets (or one request) share
// Block; Parent is the id of the span that caused this one, 0 for a root.
// Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Block   int    `json:"block"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the
// traced pass ends. It is used from one goroutine at a time.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, block int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Block: block, Name: name, StartNS: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span measured elsewhere (a client request of the load
// generator).
func (r *recorder) add(name string, block int, start time.Time, d time.Duration) {
	at := int64(start.Sub(r.t0))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Block: block, Name: name, StartNS: at, EndNS: at + int64(d)})
}

// spanFile is bench/out/trace-<workload>.json.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}
