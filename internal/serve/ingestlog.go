package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/twitterdata"
)

// Write-ahead ingestion and replay. With Options.Log set, admit appends
// a tweet to its shard's log partition and then enqueues it, both under
// the shard's mutex, after a capacity check, so queue order equals log
// order and a logged tweet always reaches the pipeline:
//
//   - queue full  -> 429 before anything is written. A client retry
//     cannot double-append, because the shed tweet never entered the log.
//   - append fails -> the tweet is not enqueued. ErrBackpressure (fsync
//     budget exhausted) is shed as 429 like a full queue; a hard I/O
//     error surfaces as 503.
//   - append succeeds -> the enqueue cannot block and cannot be shed.
//
// Exactly-once replay follows from the pipeline recording each applied
// offset inside the same critical section as the tweet's effects: a
// checkpoint is a consistent cut (state, offset), and Replay applies
// precisely the records after it, in log order, on the shard that
// originally owned them.

// errReplaying rejects live traffic while Replay owns the pipelines.
var errReplaying = errors.New("serve: server is replaying the ingest log")

// Log exposes the server's ingest log (nil when ingestion is not
// write-ahead).
func (s *Server) Log() *ingestlog.Log { return s.opts.Log }

// Replay applies every log record each shard's pipeline has not applied
// yet — after a restore, the records between the checkpoint's cut and
// the crash. It returns the number of records applied. Call it before
// serving traffic: each shard is marked replaying under its mutex for the
// duration, so admit answers 503 and live tweets cannot interleave with
// the replayed prefix.
//
// Replay reads the partitions concurrently (one goroutine per shard,
// mirroring live operation) through mmap'd segment readers and feeds each
// record to the shard's pipeline as a logged batch entry — the same call
// the shard loop makes. A record that does not decode as an NDJSON tweet
// stops that shard's replay with an error naming shard and offset; every
// record before it stays applied.
func (s *Server) Replay() (int64, error) {
	if s.opts.Log == nil {
		return 0, nil
	}
	var total atomic.Int64
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			n, err := s.replayShard(sh)
			total.Add(n)
			errs[i] = err
		}(i, sh)
	}
	wg.Wait()
	return total.Load(), errors.Join(errs...)
}

func (s *Server) replayShard(sh *shard) (int64, error) {
	sh.mu.Lock()
	if sh.replaying {
		sh.mu.Unlock()
		return 0, fmt.Errorf("serve: replay shard %d: replay already in progress", sh.id)
	}
	sh.replaying = true
	last := sh.lastEnqueued
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		sh.replaying = false
		sh.lastEnqueued = last
		sh.mu.Unlock()
	}()
	r, err := s.opts.Log.OpenReader(sh.id)
	if err != nil {
		return 0, fmt.Errorf("serve: replay shard %d: %w", sh.id, err)
	}
	defer r.Close()
	if err := r.SeekTo(sh.p.LogOffset() + 1); err != nil {
		return 0, fmt.Errorf("serve: replay shard %d: %w", sh.id, err)
	}
	var n int64
	var tw twitterdata.Tweet
	// Arena strings are never discarded here: anything the pipeline retains
	// past the ProcessBatch call is cloned at the retention boundary, and
	// dead chunks fall to the GC.
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	var entry [1]core.BatchEntry
	var result [1]core.Result
	for {
		payload, off, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("serve: replay shard %d: %w", sh.id, err)
		}
		if err := dec.DecodeInto(&tw, payload); err != nil {
			return n, fmt.Errorf("serve: replay shard %d offset %d: %w", sh.id, off, err)
		}
		entry[0] = core.BatchEntry{Tweet: &tw, Offset: off, Logged: true}
		sh.p.ProcessBatch(entry[:], result[:0])
		last = off
		n++
	}
}
