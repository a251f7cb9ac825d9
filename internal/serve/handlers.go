package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/eval"
	"redhanded/internal/feature"
	"redhanded/internal/metrics"
	"redhanded/internal/stream"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// ClassifyResponse is the synchronous result of POST /v1/classify.
type ClassifyResponse struct {
	TweetID    string  `json:"tweet_id"`
	Shard      int     `json:"shard"`
	Predicted  string  `json:"predicted"`
	Confidence float64 `json:"confidence"`
	Alerted    bool    `json:"alerted"`
	Tested     bool    `json:"tested"`
}

// IngestResponse reports what happened to an NDJSON batch.
type IngestResponse struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Malformed int64 `json:"malformed"`
}

// ShardStats is one shard's entry in GET /v1/stats.
type ShardStats struct {
	Shard        int   `json:"shard"`
	Processed    int64 `json:"processed"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_cap"`
	AlertsRaised int64 `json:"alerts_raised"`
	// User-state cardinality and activity for this shard's store.
	ActiveUsers     int         `json:"active_users"`
	Evictions       int64       `json:"user_evictions"`
	SessionVerdicts int64       `json:"session_verdicts"`
	Escalations     int64       `json:"escalations"`
	Report          eval.Report `json:"report"`
	// Drift carries the shard model's drift telemetry (per-member ADWIN
	// warning/drift/replacement counters for the ARF); absent for models
	// without drift detectors.
	Drift *stream.DriftStats `json:"drift,omitempty"`
	// Snapshot carries the shard's compiled-snapshot telemetry (rebuild
	// counters, staleness age).
	Snapshot *core.SnapshotStats `json:"snapshot,omitempty"`
	// IngestLog describes the shard's write-ahead log partition; absent
	// when the server runs without a log.
	IngestLog *ShardLogStats `json:"ingest_log,omitempty"`
	// FeatCache carries the shard's content-addressed extraction-cache
	// counters (hits/misses/evictions/occupancy).
	FeatCache *feature.CacheStats `json:"feature_cache,omitempty"`
}

// ShardLogStats is one shard's ingest-log partition state in /v1/stats.
type ShardLogStats struct {
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Appended is the last offset committed to the partition, Applied the
	// last offset the shard pipeline has processed (both -1 when none);
	// Lag is the gap — records that exist only in the log and would be
	// replayed after a crash right now.
	Appended int64 `json:"appended_offset"`
	Applied  int64 `json:"applied_offset"`
	Lag      int64 `json:"lag"`
}

// IngestLogStats is the aggregate ingest-log section of /v1/stats.
type IngestLogStats struct {
	Dir      string `json:"dir"`
	Fsync    string `json:"fsync"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	Lag      int64  `json:"lag"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	Processed     int64   `json:"processed"`
	Accepted      int64   `json:"accepted"`
	Rejected      int64   `json:"rejected"`
	AlertsRaised  int64   `json:"alerts_raised"`
	Subscribers   int     `json:"alert_subscribers"`
	// Aggregate user-state cardinality and activity across shards.
	ActiveUsers     int64 `json:"active_users"`
	UserEvictions   int64 `json:"user_evictions"`
	SessionVerdicts int64 `json:"session_verdicts"`
	Escalations     int64 `json:"escalations"`
	// Aggregate drift telemetry across shards (models with drift
	// detectors only).
	Warnings         int64 `json:"drift_warnings,omitempty"`
	Drifts           int64 `json:"drifts,omitempty"`
	TreeReplacements int64 `json:"tree_replacements,omitempty"`
	// Aggregate compiled-snapshot telemetry across shards.
	SnapshotRebuilds     int64 `json:"snapshot_rebuilds,omitempty"`
	SnapshotTreesRebuilt int64 `json:"snapshot_trees_rebuilt,omitempty"`
	// Aggregate extraction-cache counters across shards. Clients compute
	// the server-side hit ratio as Hits/(Hits+Misses) over a pre/post
	// delta.
	FeatCacheHits      int64 `json:"featcache_hits,omitempty"`
	FeatCacheMisses    int64 `json:"featcache_misses,omitempty"`
	FeatCacheEvictions int64 `json:"featcache_evictions,omitempty"`
	// Ingress is the process-wide fast-decoder telemetry (decode counts,
	// arena chunk turnover); shared across servers in one process.
	Ingress   *twitterdata.DecodeStats `json:"ingress,omitempty"`
	IngestLog *IngestLogStats          `json:"ingest_log,omitempty"`
	PerShard  []ShardStats             `json:"per_shard"`
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.HandlerFunc) {
		c := s.opts.Registry.Counter("redhanded_http_requests_total",
			"HTTP requests by endpoint.", metrics.Labels{"path": name})
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			c.Inc()
			h(w, r)
		})
	}
	handle("POST /v1/classify", "/v1/classify", s.handleClassify)
	handle("POST /v1/ingest", "/v1/ingest", s.handleIngest)
	handle("GET /v1/alerts", "/v1/alerts", s.handleAlerts)
	handle("GET /v1/users/{id}", "/v1/users", s.handleUser)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /v1/trace", "/v1/trace", s.handleTrace)
	handle("GET /v1/trace/slow", "/v1/trace/slow", s.handleTraceSlow)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.metricsHandler())
	return mux
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeBackpressure(w http.ResponseWriter, v any) {
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusTooManyRequests, v)
}

// bodyBufPool recycles /v1/classify body buffers and /v1/ingest scanner
// buffers: the fast-decode ingress otherwise pays one large read-buffer
// allocation per request, dwarfing the decode savings.
var bodyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64*1024)
	return &b
}}

// handleClassify runs one tweet through its shard synchronously. Latency
// is recorded for every terminal outcome, labeled by outcome, so the
// accepted-path series stays clean while rejections and disconnects remain
// observable. The body decodes through the pooled zero-alloc Decoder, and
// the raw body bytes ride into the WAL append verbatim.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := outcomeOK
	defer func() {
		s.latency[outcome].Observe(time.Since(start).Seconds())
	}()
	bp := bodyBufPool.Get().(*[]byte)
	defer bodyBufPool.Put(bp)
	body := bytes.NewBuffer((*bp)[:0])
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		outcome = outcomeBadRequest
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("read tweet: %v", err)})
		return
	}
	raw := body.Bytes()
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	var tw twitterdata.Tweet
	if err := dec.DecodeInto(&tw, raw); err != nil {
		outcome = outcomeBadRequest
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decode tweet: %v", err)})
		return
	}
	reply := make(chan core.Result, 1)
	sh, ok, err := s.admit(job{tweet: tw, reply: reply}, raw)
	if err != nil {
		dec.Discard()
		outcome = outcomeDraining
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		dec.Discard()
		outcome = outcomeQueueFull
		s.rejected.Inc()
		s.writeBackpressure(w, map[string]string{"error": "shard queue full"})
		return
	}
	s.accepted.Inc()
	select {
	case res := <-reply:
		s.writeJSON(w, http.StatusOK, ClassifyResponse{
			TweetID:    tw.IDStr,
			Shard:      sh.id,
			Predicted:  sh.p.Classes().Name(res.Predicted),
			Confidence: res.Confidence,
			Alerted:    res.Alerted,
			Tested:     res.Tested,
		})
	case <-r.Context().Done():
		// The client went away; the shard still processes the tweet and
		// drops the buffered reply. The time until disconnect lands on the
		// canceled series instead of masquerading as request latency.
		outcome = outcomeCanceled
	}
}

// handleIngest enqueues an NDJSON batch asynchronously. Ingestion stops at
// the first rejected line: every later line is counted as rejected without
// being enqueued, so Accepted+Malformed is always a prefix of the batch
// and a 429'd client retries exactly the lines from that prefix onward
// without double-training the models.
//
// Each line decodes through the pooled zero-alloc Decoder and its raw bytes
// flow straight into the WAL append — no re-marshal between the wire and
// the log. Arena hygiene on the reject paths: a decoded tweet that is NOT
// enqueued (queue-full/backpressure shed, drain/replay 503) is Discarded so
// a rejected burst cannot stride through arena chunks it never committed;
// malformed lines rewind automatically inside DecodeInto.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var resp IngestResponse
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	bp := bodyBufPool.Get().(*[]byte)
	defer bodyBufPool.Put(bp)
	sc.Buffer(*bp, 4*1024*1024)
	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	for sc.Scan() {
		line := sc.Bytes()
		if resp.Rejected > 0 {
			resp.Rejected++
			continue
		}
		if len(line) == 0 {
			// Counted so Accepted+Malformed stays an exact prefix length
			// and 429 retries resume at the right line.
			resp.Malformed++
			continue
		}
		var tw twitterdata.Tweet
		if dec.DecodeInto(&tw, line) != nil {
			resp.Malformed++
			continue
		}
		_, ok, err := s.admit(job{tweet: tw}, line)
		if err != nil {
			dec.Discard()
			s.recordIngest(resp)
			s.writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
		if ok {
			resp.Accepted++
		} else {
			dec.Discard()
			resp.Rejected++
		}
	}
	// Record before any error return: tweets already enqueued are real
	// work and the metrics must reflect them.
	s.recordIngest(resp)
	if err := sc.Err(); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":     fmt.Sprintf("read body: %v", err),
			"accepted":  resp.Accepted,
			"rejected":  resp.Rejected,
			"malformed": resp.Malformed,
		})
		return
	}
	if resp.Rejected > 0 {
		s.writeBackpressure(w, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) recordIngest(r IngestResponse) {
	s.accepted.Add(r.Accepted)
	s.rejected.Add(r.Rejected)
	s.malformed.Add(r.Malformed)
}

// UserResponse is the GET /v1/users/{id} payload: which shard owns the
// user plus a point-in-time snapshot of their state.
type UserResponse struct {
	Shard int `json:"shard"`
	userstate.Snapshot
}

// handleUser looks one user's state up on the shard their tweets route
// to. Unknown users get 404 — either never seen, or already evicted by
// the cap/TTL policy.
func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing user id"})
		return
	}
	idx := ShardFor(id, len(s.shards))
	snap, ok := s.shards[idx].p.LookupUser(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown user (never seen or evicted)"})
		return
	}
	s.writeJSON(w, http.StatusOK, UserResponse{Shard: idx, Snapshot: snap})
}

// handleStats reports per-shard prequential metrics and queue state from
// one reading.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	r := s.read()
	st := Stats{
		UptimeSeconds: s.Uptime().Seconds(),
		Shards:        len(s.shards),
		Accepted:      s.accepted.Value(),
		Rejected:      s.rejected.Value(),
		Subscribers:   r.subscribers,
	}
	if ds := r.decode; ds.Decodes > 0 || ds.Errors > 0 {
		st.Ingress = &ds
	}
	if l := s.opts.Log; l != nil {
		st.IngestLog = &IngestLogStats{Dir: l.Dir(), Fsync: l.Fsync().String()}
	}
	for i, sh := range s.shards {
		c := &r.counts[i]
		st.Processed += c.Processed
		st.AlertsRaised += c.AlertsRaised
		if d := c.Drift; d != nil {
			st.Warnings += d.Warnings
			st.Drifts += d.Drifts
			st.TreeReplacements += d.TreeReplacements
		}
		evictions := c.EvictionsCap + c.EvictionsTTL
		st.ActiveUsers += int64(c.ActiveUsers)
		st.UserEvictions += evictions
		st.SessionVerdicts += c.SessionVerdicts
		st.Escalations += c.Escalations
		entry := ShardStats{
			Shard:           sh.id,
			Processed:       c.Processed,
			QueueDepth:      r.depth[i],
			QueueCap:        cap(sh.queue),
			AlertsRaised:    c.AlertsRaised,
			ActiveUsers:     c.ActiveUsers,
			Evictions:       evictions,
			SessionVerdicts: c.SessionVerdicts,
			Escalations:     c.Escalations,
			Report:          c.Report,
			Drift:           c.Drift,
			Snapshot:        &c.Snapshot,
			FeatCache:       &c.Cache,
		}
		st.SnapshotRebuilds += c.Snapshot.Rebuilds
		st.SnapshotTreesRebuilt += c.Snapshot.TreesRebuilt
		st.FeatCacheHits += c.Cache.Hits
		st.FeatCacheMisses += c.Cache.Misses
		st.FeatCacheEvictions += c.Cache.Evictions
		if r.log != nil {
			ps := r.log[i]
			entry.IngestLog = &ShardLogStats{
				Segments: ps.Segments,
				Bytes:    ps.Bytes,
				Appended: ps.Appended,
				Applied:  c.LogOffset,
				Lag:      r.lag(i),
			}
			st.IngestLog.Segments += ps.Segments
			st.IngestLog.Bytes += ps.Bytes
			st.IngestLog.Lag += r.lag(i)
		}
		st.PerShard = append(st.PerShard, entry)
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleTrace reports the tracing layer's span counts and stage
// statistics. With tracing disabled it answers {"enabled": false} rather
// than 404, so clients can feature-detect.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.tracer.Snapshot())
}

// handleTraceSlow reports the full stage breakdown of every captured
// over-budget ("slow verdict") span.
func (s *Server) handleTraceSlow(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.tracer.SlowTraces())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]any{"status": status, "shards": len(s.shards)})
}

// metricsHandler serves the server's own registry: every series on it
// describes this server's shards, never another pipeline in the process.
func (s *Server) metricsHandler() http.Handler {
	reg := s.opts.Registry
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
}
