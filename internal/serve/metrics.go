package serve

import (
	"strconv"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/ingestlog"
	"redhanded/internal/metrics"
	"redhanded/internal/twitterdata"
)

// reading is one read of every owner of the server's counts: each shard's
// pipeline (one Counts, under its lock once), queue depth and busy time,
// the ingest log (one Stats), the ingress decoder and the alert hub.
// /v1/stats and /metrics each render one reading per request, so both are
// a single cut of every pipeline and neither takes a lock twice.
type reading struct {
	counts      []core.Counts
	depth       []int
	busy        []time.Duration
	log         []ingestlog.PartitionStats // nil without a WAL
	decode      twitterdata.DecodeStats
	subscribers int
}

// read takes a reading. The pipelines are read before the log, so a
// shard's applied offset never runs ahead of the appended one it is
// compared with.
func (s *Server) read() reading {
	r := reading{
		counts: make([]core.Counts, len(s.shards)),
		depth:  make([]int, len(s.shards)),
		busy:   make([]time.Duration, len(s.shards)),
	}
	for i, sh := range s.shards {
		r.counts[i] = sh.p.Counts()
		r.depth[i] = len(sh.queue)
		r.busy[i] = time.Duration(sh.busy.Load())
	}
	if l := s.opts.Log; l != nil {
		r.log = l.Stats()
	}
	r.decode = twitterdata.ReadDecodeStats()
	r.subscribers = s.hub.Subscribers()
	return r
}

// lag is the number of records shard i's log partition holds that its
// pipeline has not applied.
func (r *reading) lag(i int) int64 { return r.log[i].Appended - r.counts[i].LogOffset }

// writeMetrics is the server's collector: every per-shard, pipeline-total,
// ingest-log, ingress and subscriber family, written from one reading.
func (s *Server) writeMetrics(w *metrics.Writer) {
	r := s.read()
	perShard := func(f *metrics.Writer, v func(i int) float64) {
		for i, sh := range s.shards {
			f.Sample(sh.labels, v(i))
		}
	}
	perShard(w.Gauge("redhanded_shard_queue_depth", "Live shard queue depth."),
		func(i int) float64 { return float64(r.depth[i]) })
	perShard(w.Counter("redhanded_shard_busy_seconds_total", "Wall time the shard loop spent on drained batches."),
		func(i int) float64 { return r.busy[i].Seconds() })
	perShard(w.Counter("redhanded_shard_processed_total", "Tweets the shard's pipeline has processed (resumed by a restore)."),
		func(i int) float64 { return float64(r.counts[i].Processed) })
	perShard(w.Gauge("redhanded_userstate_active_users", "Tracked user records per shard."),
		func(i int) float64 { return float64(r.counts[i].ActiveUsers) })
	perShard(w.Counter("redhanded_snapshot_rebuilds", "Model compiles per shard."),
		func(i int) float64 { return float64(r.counts[i].Snapshot.Rebuilds) })
	perShard(w.Counter("redhanded_snapshot_trees_rebuilt", "Member trees re-compiled across model compiles per shard."),
		func(i int) float64 { return float64(r.counts[i].Snapshot.TreesRebuilt) })
	perShard(w.Gauge("redhanded_snapshot_age", "Model mutations the shard's compiled model is behind."),
		func(i int) float64 { return float64(r.counts[i].Snapshot.Age) })
	perShard(w.Counter("redhanded_featcache_hits", "Extraction-cache hits per shard."),
		func(i int) float64 { return float64(r.counts[i].Cache.Hits) })
	perShard(w.Counter("redhanded_featcache_misses", "Extraction-cache misses per shard."),
		func(i int) float64 { return float64(r.counts[i].Cache.Misses) })
	perShard(w.Counter("redhanded_featcache_evictions", "Extraction-cache CLOCK evictions per shard."),
		func(i int) float64 { return float64(r.counts[i].Cache.Evictions) })
	perShard(w.Gauge("redhanded_featcache_entries", "Live extraction-cache entries per shard."),
		func(i int) float64 { return float64(r.counts[i].Cache.Entries) })
	core.WriteTotals(w, r.counts)

	if r.log != nil {
		perShard(w.Gauge("redhanded_ingestlog_replay_lag",
			"Records appended to the shard's log partition but not yet applied by its pipeline."),
			func(i int) float64 { return float64(r.lag(i)) })
		var t ingestlog.PartitionStats
		for _, ps := range r.log {
			t.Appends += ps.Appends
			t.AppendedBytes += ps.AppendedBytes
			t.Fsyncs += ps.Fsyncs
			t.Stalls += ps.Stalls
		}
		w.Counter("redhanded_ingestlog_appends_total", "Records appended to the ingest log.").Sample(nil, float64(t.Appends))
		w.Counter("redhanded_ingestlog_bytes_total", "Bytes appended to the ingest log (framing included).").Sample(nil, float64(t.AppendedBytes))
		w.Counter("redhanded_ingestlog_fsyncs_total", "fsync calls issued by the ingest log.").Sample(nil, float64(t.Fsyncs))
		w.Counter("redhanded_ingestlog_append_stalls_total",
			"Appends shed with backpressure because the unsynced budget was exhausted.").Sample(nil, float64(t.Stalls))
		perPartition := func(f *metrics.Writer, v func(ps ingestlog.PartitionStats) float64) {
			for _, ps := range r.log {
				f.Sample(metrics.Labels{"partition": strconv.Itoa(ps.Partition)}, v(ps))
			}
		}
		perPartition(w.Gauge("redhanded_ingestlog_segments", "Segment files per partition."),
			func(ps ingestlog.PartitionStats) float64 { return float64(ps.Segments) })
		perPartition(w.Gauge("redhanded_ingestlog_partition_bytes", "Bytes on disk per partition."),
			func(ps ingestlog.PartitionStats) float64 { return float64(ps.Bytes) })
	}

	// Ingress decoder telemetry is package-wide (the decoder pool is shared
	// by every server in the process), written without a shard label.
	w.Counter("redhanded_ingress_decodes_total", "Successful fast NDJSON tweet decodes.").Sample(nil, float64(r.decode.Decodes))
	w.Counter("redhanded_ingress_decode_errors_total", "Failed fast NDJSON tweet decodes.").Sample(nil, float64(r.decode.Errors))
	w.Counter("redhanded_ingress_arena_chunks", "Decoder arena chunks allocated since process start.").Sample(nil, float64(r.decode.ArenaChunks))
	w.Counter("redhanded_ingress_interned_bytes", "String bytes interned into decoder arenas.").Sample(nil, float64(r.decode.InternedBytes))
	w.Gauge("redhanded_sse_subscribers", "Live SSE alert subscribers.").Sample(nil, float64(r.subscribers))
}
