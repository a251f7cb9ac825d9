package main

import (
	"fmt"
	"runtime"

	"redhanded/internal/core"
	"redhanded/internal/feature"
	"redhanded/internal/ingestlog"
	"redhanded/internal/ml"
	"redhanded/internal/stream"
	"redhanded/internal/text"
	"redhanded/internal/twitterdata"
	"redhanded/internal/userstate"
)

// ledger is the outcome of the in-process layer pass: microseconds per call
// for every layer, measured from outside through the layer's public
// functions, plus the two shares that weight them into a per-tweet sum.
type ledger struct {
	us           map[string]float64 // metric name -> median microseconds per call
	allocs       map[string]float64 // metric name -> allocations per call
	bytesPerRec  float64            // ingest-log bytes per appended tweet
	labeledShare float64
	hitRatio     float64 // extraction-cache hit ratio of the whole pipeline over the timed blocks
}

// selfUS is the part of Pipeline.Process the layer rows do not account for:
// locks, pooling, sampling, alerting, vocabulary learning, bookkeeping. It
// is the ledger's remainder and is always printed.
func (l *ledger) selfUS() float64 {
	extract := l.hitRatio*l.us["feature.cache_hit_us"] + (1-l.hitRatio)*l.us["feature.cache_miss_us"]
	return l.us["core.process_us"] - (extract + l.us["norm.normalize_us"] + l.us["stream.classify_us"] +
		l.us["userstate.observe_us"] + l.labeledShare*(l.us["stream.train_us"]+l.us["stream.compile_us"]))
}

func (l *ledger) metrics() map[string]float64 {
	m := map[string]float64{
		"ingestlog.bytes_per_tweet": l.bytesPerRec,
		"core.self_us":              l.selfUS(),
	}
	for k, v := range l.us {
		m[k] = v
	}
	for k, v := range l.allocs {
		m[k] = v
	}
	return m
}

// allocsPer counts heap allocations per call of fn over n calls. Nothing
// else runs in the process while it measures.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// layerPass takes a warmed core.Pipeline apart and times every layer on the
// workload's own corpus: one span per layer call per block of layerBlock
// tweets, all under the block's root span. A second warmed pipeline is timed
// whole through Process and a third through ProcessBatch, so the layer rows
// can be summed against what the pipeline actually costs.
//
// lines must hold at least layerWarmup + layerBlocks*layerBlock tweets.
func layerPass(lines [][]byte, walDir string, rec *recorder) (*ledger, error) {
	if need := layerWarmup + layerBlocks*layerBlock; len(lines) < need {
		return nil, fmt.Errorf("layer pass needs %d corpus lines, have %d", need, len(lines))
	}
	seen := make(map[string]bool, len(lines)) // texts the taken-apart extractor may hold
	apart := core.NewPipeline(referenceOptions())
	whole := core.NewPipeline(referenceOptions())
	batch := core.NewPipeline(referenceOptions())
	for _, line := range lines[:layerWarmup] {
		tw, err := twitterdata.Unmarshal(line)
		if err != nil {
			return nil, err
		}
		seen[tw.Text] = true
		apart.Process(&tw)
		whole.Process(&tw)
		batch.Process(&tw)
	}
	ext, nrm, users := apart.Extractor(), apart.Normalizer(), apart.Users()
	model := apart.Model()
	compilable, ok := model.(stream.Compilable)
	if !ok {
		return nil, fmt.Errorf("model %T cannot be compiled", model)
	}
	snap := compilable.CompileSnapshot(nil)
	votes := make(ml.Prediction, snap.NumClasses())
	scratch := make([]float64, snap.ScratchLen())
	scheme := apart.Options().Scheme

	parts := runtime.NumCPU()
	wal, err := ingestlog.Open(ingestlog.Options{Dir: walDir, Partitions: parts, Fsync: ingestlog.FsyncInterval})
	if err != nil {
		return nil, fmt.Errorf("open in-process ingest log: %w", err)
	}
	defer wal.Close()

	dec := twitterdata.GetDecoder()
	defer twitterdata.PutDecoder(dec)
	var (
		scan    text.Scratch
		tweets  [layerBlock]twitterdata.Tweet
		raws    [layerBlock]feature.Vec
		xs      [layerBlock][]float64
		preds   [layerBlock]int
		confs   [layerBlock]float64
		fresh   [layerBlock]bool
		tmp     feature.Vec
		entries = make([]core.BatchEntry, 0, 32)
		results = make([]core.Result, 0, 32)
		perCall = make(map[string][]float64)
		labeled int
	)
	// layer times fn over the block's tweets as one span and records the
	// per-call cost.
	layer := func(name string, root, block, calls int, fn func()) {
		id := rec.begin(name, root, block)
		fn()
		if d := rec.end(id); calls > 0 {
			perCall[name] = append(perCall[name], float64(d)/float64(calls)/1e3)
		}
	}
	cacheBefore := whole.Extractor().CacheStats()
	for b := 0; b < layerBlocks; b++ {
		blockLines := lines[layerWarmup+b*layerBlock:][:layerBlock]
		root := rec.begin("block", 0, b)

		var decodeErr, appendErr error
		layer("twitterdata.decode_us", root, b, layerBlock, func() {
			for i, line := range blockLines {
				if err := dec.DecodeInto(&tweets[i], line); err != nil {
					decodeErr = err
				}
			}
		})
		layer("ingestlog.append_us", root, b, layerBlock, func() {
			for i, line := range blockLines {
				if _, err := wal.Append(ingestlog.PartitionFor(tweets[i].User.IDStr, parts), line); err != nil {
					appendErr = err
				}
			}
		})
		if decodeErr != nil || appendErr != nil {
			return nil, fmt.Errorf("layer pass block %d: decode: %v, append: %v", b, decodeErr, appendErr)
		}
		layer("text.scan_us", root, b, layerBlock, func() {
			for i := range tweets {
				scan.Scan(tweets[i].Text)
			}
		})
		layer("feature.extract_us", root, b, layerBlock, func() {
			for i := range tweets {
				ext.ExtractInto(raws[i][:], &tweets[i])
			}
		})
		// Cache rows. A miss is ExtractCachedInto on a text this extractor
		// has never seen; a hit is LookupCached on a text it has just
		// admitted. Texts seen in an earlier block are skipped: whether they
		// are still resident depends on vocabulary updates in between.
		nFresh := 0
		for i := range tweets {
			fresh[i] = !seen[tweets[i].Text]
			if fresh[i] {
				seen[tweets[i].Text] = true
				nFresh++
			}
		}
		layer("feature.cache_miss_us", root, b, nFresh, func() {
			for i := range tweets {
				if fresh[i] {
					ext.ExtractCachedInto(tmp[:], &tweets[i])
				}
			}
		})
		// Nearly every lookup below hits: a 4-way set that took two of this
		// block's texts may already have evicted the first. The row is per
		// lookup that did hit.
		hits := 0
		hit := rec.begin("feature.cache_hit_us", root, b)
		for i := range tweets {
			if fresh[i] && ext.LookupCached(tmp[:], &tweets[i]) {
				hits++
			}
		}
		if d := rec.end(hit); hits > 0 {
			perCall["feature.cache_hit_us"] = append(perCall["feature.cache_hit_us"], float64(d)/float64(hits)/1e3)
		}
		layer("norm.normalize_us", root, b, layerBlock, func() {
			for i := range tweets {
				nrm.Observe(raws[i][:])
				xs[i] = nrm.Normalize(raws[i][:], nil)
			}
		})
		layer("stream.classify_us", root, b, layerBlock, func() {
			for i := range tweets {
				snap.PredictInto(votes, scratch, xs[i])
				preds[i], confs[i] = votes.ArgMax(), votes.Confidence()
			}
		})
		layer("userstate.observe_us", root, b, layerBlock, func() {
			for i := range tweets {
				users.Observe(userstate.Observation{
					UserID: tweets[i].User.IDStr, ScreenName: tweets[i].User.ScreenName,
					At: tweets[i].PostedAt(), Aggressive: preds[i] > 0, Confidence: confs[i],
				})
			}
		})
		// Train and recompile interleave per labeled tweet, as in the
		// pipeline, so each call is its own span.
		for i := range tweets {
			if !tweets[i].IsLabeled() {
				continue
			}
			labeled++
			in := ml.Instance{X: xs[i], Label: scheme.LabelIndex(tweets[i].Label), Weight: 1, ID: tweets[i].IDStr, Day: tweets[i].Day}
			layer("stream.train_us", root, b, 1, func() { model.Train(in) })
			layer("stream.compile_us", root, b, 1, func() { snap = compilable.CompileSnapshot(snap) })
			ext.Learn(&tweets[i])
		}
		layer("core.process_us", root, b, layerBlock, func() {
			for i := range tweets {
				whole.Process(&tweets[i])
			}
		})
		layer("core.process_batch_us", root, b, layerBlock, func() {
			for lo := 0; lo < layerBlock; lo += 32 {
				entries = entries[:0]
				for i := lo; i < lo+32; i++ {
					entries = append(entries, core.BatchEntry{Tweet: &tweets[i]})
				}
				results = batch.ProcessBatch(entries, results[:0])
			}
		})
		rec.end(root)
	}
	cacheAfter := whole.Extractor().CacheStats()

	l := &ledger{us: make(map[string]float64), allocs: make(map[string]float64)}
	for name, v := range perCall {
		l.us[name] = median(v)
	}
	n := float64(layerBlocks * layerBlock)
	l.labeledShare = float64(labeled) / n
	if lookups := float64(cacheAfter.Hits + cacheAfter.Misses - cacheBefore.Hits - cacheBefore.Misses); lookups > 0 {
		l.hitRatio = float64(cacheAfter.Hits-cacheBefore.Hits) / lookups
	}
	var logBytes int64
	for _, ps := range wal.Stats() {
		logBytes += ps.Bytes
	}
	l.bytesPerRec = float64(logBytes) / n

	// Allocation rows, on the last block's tweets and lines.
	tail := lines[layerWarmup+(layerBlocks-1)*layerBlock:][:layerBlock]
	var tw twitterdata.Tweet
	l.allocs["twitterdata.decode_allocs"] = allocsPer(2048, func(i int) { _ = dec.DecodeInto(&tw, tail[i%layerBlock]) })
	l.allocs["feature.extract_allocs"] = allocsPer(2048, func(i int) { ext.ExtractInto(tmp[:], &tweets[i%layerBlock]) })
	l.allocs["core.process_allocs"] = allocsPer(2048, func(i int) { whole.Process(&tweets[i%layerBlock]) })
	return l, nil
}
